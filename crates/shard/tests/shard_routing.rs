//! Mutation routing (DESIGN.md §14): a mutation must land on exactly one
//! shard (only that shard's epoch moves), on the shard whose center is
//! exactly nearest, and receipts must carry the full epoch vector. Restarts
//! replay the dataset's mutation log through these same routes;
//! `graphrep-serve`'s `mutation_persistence` suite covers them. Also here:
//! the bounded center question every route asks, the engine entries the
//! default query spends, foreign calls made through a superseded snapshot,
//! and the foreign θ-question a session asks of every unpruned member,
//! answered once per pair by the coordinator's cross-shard fact table.

use graphrep_datagen::{Dataset, DatasetKind, DatasetSpec};
use graphrep_ged::{GedConfig, GedEngine, GraphProfile};
use graphrep_graph::generate::mutate;
use graphrep_graph::GraphId;
use graphrep_shard::{partition, CoordConfig, Coordinator, PartitionConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn dataset() -> Dataset {
    DatasetSpec::new(DatasetKind::DudLike, 26, 17).generate()
}

fn config(shards: usize, ladder: &[f64]) -> CoordConfig {
    CoordConfig {
        shards,
        seed: 0xC0FFEE,
        ladder: ladder.to_vec(),
    }
}

/// Inserts and removes bump exactly the owning shard's epoch; every receipt
/// carries the full epoch vector.
#[test]
fn mutations_route_to_owning_shard_only() {
    let data = dataset();
    let coord = Coordinator::build(
        &data.db,
        GedConfig::default(),
        &config(4, &data.default_ladder),
    );
    let mut rng = SmallRng::seed_from_u64(99);
    let mut before = coord.epochs();
    assert_eq!(before, vec![0, 0, 0, 0]);
    for i in 0..6 {
        let src = rng.gen_range(0..data.db.len());
        let g = mutate(
            &mut rng,
            data.db.graph(src as u32),
            1 + i % 3,
            &[0, 1],
            &[0],
        );
        let receipt = coord.insert(g).expect("insert");
        assert_eq!(receipt.epochs.len(), 4, "receipt carries the full vector");
        assert_eq!(receipt.epochs, coord.epochs());
        for (s, (&e0, &e1)) in before.iter().zip(&receipt.epochs).enumerate() {
            if s == receipt.shard {
                assert_eq!(e1, e0 + 1, "owning shard {s} bumps once");
            } else {
                assert_eq!(e1, e0, "shard {s} must not move for a foreign insert");
            }
        }
        before = receipt.epochs;
    }
    // Removals route by ownership lookup, not geometry.
    let receipt = coord.remove(3).expect("remove");
    for (s, (&e0, &e1)) in before.iter().zip(&receipt.epochs).enumerate() {
        let expect = if s == receipt.shard { e0 + 1 } else { e0 };
        assert_eq!(e1, expect);
    }
    assert!(coord.remove(10_000).is_err(), "unowned id is rejected");
}

/// The partition's center graph ids under `config(shards, ..)`: the same
/// pure function of `(db, S, seed)` `Coordinator::build` calls.
fn centers(data: &Dataset, shards: usize) -> Vec<GraphId> {
    let cfg = PartitionConfig {
        shards,
        seed: config(shards, &[]).seed,
    };
    partition(&data.db, GedConfig::default(), &cfg).centers
}

/// Every insert lands on the exact argmin over the centers (ties toward the
/// smaller index) and stores its exact distance to that center, although
/// each shard after the first is only asked up to the best distance so far.
#[test]
fn inserts_route_to_the_exact_nearest_center() {
    let data = dataset();
    let coord = Coordinator::build(
        &data.db,
        GedConfig::default(),
        &config(4, &data.default_ladder),
    );
    let centers = centers(&data, 4);
    let engine = GedEngine::new(GedConfig::default());
    let mut rng = SmallRng::seed_from_u64(7);
    let mut owners = [0usize; 4];
    for i in 0..30 {
        let src = rng.gen_range(0..data.db.len());
        let g = mutate(
            &mut rng,
            data.db.graph(src as u32),
            1 + i % 4,
            &[0, 1],
            &[0],
        );
        let mut want = (f64::INFINITY, 0usize);
        for (s, &c) in centers.iter().enumerate() {
            let d = engine.distance(&g, data.db.graph(c));
            if d < want.0 {
                want = (d, s);
            }
        }
        let receipt = coord.insert(g).expect("insert");
        assert_eq!(
            receipt.shard, want.1,
            "insert {i} routed to the wrong shard"
        );
        owners[receipt.shard] += 1;
        let snap = &coord.snapshots()[receipt.shard];
        let local = snap.local_of(receipt.id).expect("owner holds the id");
        assert_eq!(
            snap.member_center_distance(local),
            want.0,
            "insert {i} stored an inexact center distance"
        );
    }
    assert!(
        owners.iter().filter(|&&o| o > 0).count() >= 2,
        "routing never left one shard: {owners:?}"
    );
}

/// `center_distance_within` answers the threshold question exactly: the
/// exact distance iff it is within τ, and one foreign call per invocation.
#[test]
fn center_distance_within_is_the_exact_threshold_answer() {
    let data = dataset();
    let coord = Coordinator::build(
        &data.db,
        GedConfig::default(),
        &config(4, &data.default_ladder),
    );
    let centers = centers(&data, 4);
    let engine = GedEngine::new(GedConfig::default());
    let snaps = coord.snapshots();
    let mut inside = 0;
    let mut outside = 0;
    for (s, home) in snaps.iter().enumerate() {
        for local in 0..home.len() as GraphId {
            let (probe, profile) = (home.graph(local), home.profile(local));
            for (t, foreign) in snaps.iter().enumerate().filter(|&(t, _)| t != s) {
                let exact = engine.distance(probe, data.db.graph(centers[t]));
                for tau in [
                    0.0,
                    1.0,
                    2.5,
                    4.0,
                    exact - 1.0,
                    exact,
                    exact + 0.5,
                    f64::INFINITY,
                ] {
                    let calls = foreign.foreign_calls();
                    let got = foreign.center_distance_within(probe, profile, tau);
                    assert_eq!(foreign.foreign_calls(), calls + 1, "one call per question");
                    let want = (exact <= tau + 1e-9).then_some(exact);
                    assert_eq!(
                        got, want,
                        "shard {s} member {local} → center {t} at τ = {tau}"
                    );
                    if want.is_some() {
                        inside += 1;
                    } else {
                        outside += 1;
                    }
                }
            }
        }
    }
    assert!(
        inside > 0 && outside > 0,
        "{inside} inside, {outside} outside"
    );
}

/// The default query's per-shard engine entries (oracle + foreign calls)
/// and shard classification, pinned: each unpruned foreign relevant member
/// is asked one θ-question per verified candidate, and no center question
/// is asked. A cross-shard pair reaches the engine once: when its other
/// member is verified later, the fact table answers (counted on the shard
/// that asked first). The index and neighborhood audits compute distances
/// of their own, so the pin holds only without `invariant-audit`.
#[cfg(not(feature = "invariant-audit"))]
#[test]
fn default_query_engine_entries_are_pinned() {
    let seed = 20140622;
    let data = DatasetSpec::new(DatasetKind::DudLike, 160, seed).generate();
    let relevant = data.default_query().relevant_set(&data.db);
    let pinned: [(usize, &[u64], u64, u64); 2] = [
        (4, &[42, 214, 0, 144], 3, 13),
        (8, &[37, 0, 0, 146, 81, 35, 0, 72], 9, 23),
    ];
    for (shards, entries, touched, pruned) in pinned {
        let cfg = CoordConfig {
            shards,
            seed: seed ^ 0x5eed,
            ladder: data.default_ladder.clone(),
        };
        let coord = Coordinator::build(&data.db, GedConfig::default(), &cfg);
        let (_, stats) = coord.session(relevant.clone()).run(data.default_theta, 8);
        assert_eq!(stats.engine_entries, entries, "S = {shards}");
        assert_eq!(stats.touched_shard_picks, touched, "S = {shards}");
        assert_eq!(stats.pruned_shard_picks, pruned, "S = {shards}");
    }
}

/// A session pinned before every shard's epoch moved still reports its
/// foreign calls to the coordinator: the counter is shared by every
/// generation of a shard, like its oracle's tally.
#[test]
fn calls_through_a_superseded_snapshot_reach_the_coordinator() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 60, 20140622).generate();
    let coord = Coordinator::build(
        &data.db,
        GedConfig::default(),
        &config(4, &data.default_ladder),
    );
    let session = coord.session(data.default_query().relevant_set(&data.db));
    // A copy of a center is at distance 0 from it: one insert per shard.
    for c in centers(&data, 4) {
        coord.insert(data.db.graph(c).clone()).expect("insert");
    }
    assert_eq!(coord.epochs(), vec![1, 1, 1, 1], "every shard moved");
    assert_eq!(
        session.epochs(),
        vec![0, 0, 0, 0],
        "the session stays pinned"
    );
    let before = coord.engine_entries();
    let mut runs = vec![0u64; 4];
    let theta = data.default_theta;
    for theta in [theta * 0.8, theta, theta * 1.2] {
        let (_, stats) = session.run(theta, 10);
        for (r, e) in runs.iter_mut().zip(&stats.engine_entries) {
            *r += e;
        }
    }
    let delta: Vec<u64> = coord
        .engine_entries()
        .iter()
        .zip(&before)
        .map(|(a, b)| a - b)
        .collect();
    assert!(runs.iter().sum::<u64>() > 0, "the runs did engine work");
    assert_eq!(delta, runs, "the coordinator lost calls made by the runs");
}

/// `foreign_members` is the engine's verdict: for every candidate, every
/// foreign shard with a non-empty slice and every ladder θ it returns
/// exactly the slice members `m` with `GedEngine::distance(probe, m) ≤ θ`,
/// in ascending global id. Every member asked is one foreign call or one
/// hit of the coordinator's fact table. The ladder is asked twice through
/// that one table, ascending then descending: the facts the first pass
/// leaves settle every θ of the second, which asks the engine nothing.
/// Checked over three relevant sets: the default query, a seeded random
/// half, and the default query with shard 0's slice cut to its center.
#[test]
fn foreign_members_is_the_engine_verdict() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 60, 20140622).generate();
    let engine = GedEngine::new(GedConfig::default());
    let default = data.default_query().relevant_set(&data.db);
    let mut rng = SmallRng::seed_from_u64(44);
    let half: Vec<GraphId> = (0..data.db.len() as GraphId)
        .filter(|_| rng.gen_bool(0.5))
        .collect();
    let (mut kept, mut dropped) = (0usize, 0usize);
    let mut ascending = data.default_ladder.clone();
    ascending.sort_by(f64::total_cmp);
    let descending: Vec<f64> = ascending.iter().rev().copied().collect();
    for shards in [2, 4] {
        let coord = Coordinator::build(
            &data.db,
            GedConfig::default(),
            &config(shards, &data.default_ladder),
        );
        let snaps = coord.snapshots();
        let mut center_only: Vec<GraphId> = default
            .iter()
            .copied()
            .filter(|&g| snaps[0].local_of(g).is_none())
            .collect();
        center_only.push(centers(&data, shards)[0]);
        for relevant in [&default, &half, &center_only] {
            // Each shard's slice as a session holds it: ascending locals.
            let slices: Vec<Vec<GraphId>> = snaps
                .iter()
                .map(|snap| {
                    let mut ls: Vec<GraphId> =
                        relevant.iter().filter_map(|&g| snap.local_of(g)).collect();
                    ls.sort_unstable();
                    ls.dedup();
                    ls
                })
                .collect();
            for (s, home) in snaps.iter().enumerate() {
                for &c in &slices[s] {
                    let (probe, profile) = (home.graph(c), home.profile(c));
                    // The reference builds its profiles fresh
                    // (`GedEngine::distance` profiles both graphs itself).
                    assert_eq!(profile, &GraphProfile::new(probe));
                    for (t, foreign) in snaps.iter().enumerate() {
                        if t == s || slices[t].is_empty() {
                            continue;
                        }
                        let exact: Vec<(GraphId, f64)> = slices[t]
                            .iter()
                            .map(|&m| {
                                let g = foreign.global_of(m);
                                (g, engine.distance(probe, data.db.graph(g)))
                            })
                            .collect();
                        for (pass, ladder) in [&ascending, &descending].into_iter().enumerate() {
                            for &theta in ladder {
                                let (calls, hits) =
                                    (foreign.foreign_calls(), foreign.foreign_hits());
                                let got = foreign.foreign_members(
                                    home.global_of(c),
                                    probe,
                                    profile,
                                    &slices[t],
                                    theta,
                                );
                                let calls = foreign.foreign_calls() - calls;
                                let hits = foreign.foreign_hits() - hits;
                                assert_eq!(
                                    calls + hits,
                                    slices[t].len() as u64,
                                    "one foreign call or one hit per member asked"
                                );
                                if pass == 1 {
                                    assert_eq!(
                                        calls, 0,
                                        "the first pass's facts settle θ = {theta}"
                                    );
                                }
                                let want: Vec<GraphId> = exact
                                    .iter()
                                    .filter(|&&(_, d)| d <= theta + 1e-9)
                                    .map(|&(g, _)| g)
                                    .collect();
                                assert_eq!(
                                    got, want,
                                    "S = {shards}: shard {s} local {c} → shard {t} at θ = {theta}, pass {pass}"
                                );
                                kept += got.len();
                                dropped += slices[t].len() - got.len();
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(kept > 0 && dropped > 0, "{kept} kept, {dropped} dropped");
}
