//! Mutation routing (DESIGN.md §14): a mutation must land on exactly one
//! shard (only that shard's epoch moves), on the shard whose center is
//! exactly nearest, and receipts must carry the full epoch vector. Restarts
//! replay the dataset's mutation log through these same routes;
//! `graphrep-serve`'s `mutation_persistence` suite covers them. Also here:
//! the bounded center question every route and probe asks, the engine
//! entries the default query spends, foreign calls made through a
//! superseded snapshot, and the `θ + reach` cut-off of a session's foreign
//! center questions.

use graphrep_datagen::{Dataset, DatasetKind, DatasetSpec};
use graphrep_ged::{GedConfig, GedEngine};
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
/// and shard classification, pinned: bounding the center question makes
/// each call cheaper, never fewer or more. The index audits compute
/// distances of their own into the shared memo, so the pin holds only
/// without `invariant-audit`.
#[cfg(not(feature = "invariant-audit"))]
#[test]
fn default_query_engine_entries_are_pinned() {
    let seed = 20140622;
    let data = DatasetSpec::new(DatasetKind::DudLike, 160, seed).generate();
    let relevant = data.default_query().relevant_set(&data.db);
    let pinned: [(usize, &[u64], u64, u64); 2] = [
        (4, &[156, 18, 0, 45], 3, 13),
        (8, &[134, 0, 0, 42, 74, 42, 0, 66], 9, 23),
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

/// A session asks a foreign shard t's center question only out to
/// `θ + reach_t`, reach_t being the largest stored center distance over its
/// relevant slice of t. That drops no member: whenever the exact distance
/// `d` lies past the cut-off, `d − to_center > θ` for every slice member,
/// so `foreign_members` handed the exact `d` rejects them all. Checked for
/// every candidate, foreign shard and ladder θ over three relevant sets:
/// the default query, a seeded random half, and the default query with
/// shard 0's slice cut to its center alone (reach 0).
#[test]
fn reach_cut_off_never_drops_a_member() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 60, 20140622).generate();
    let default = data.default_query().relevant_set(&data.db);
    let mut rng = SmallRng::seed_from_u64(44);
    let half: Vec<GraphId> = (0..data.db.len() as GraphId)
        .filter(|_| rng.gen_bool(0.5))
        .collect();
    // Cases past θ + reach_t, and among them those still inside θ + radius_t.
    let (mut cut, mut inside_radius) = (0usize, 0usize);
    for shards in [2, 4] {
        let coord = Coordinator::build(
            &data.db,
            GedConfig::default(),
            &config(shards, &data.default_ladder),
        );
        let snaps = coord.snapshots();
        let center = centers(&data, shards)[0];
        let mut center_only: Vec<GraphId> = default
            .iter()
            .copied()
            .filter(|&g| snaps[0].local_of(g).is_none())
            .collect();
        center_only.push(center);
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
                    for (t, foreign) in snaps.iter().enumerate() {
                        if t == s || slices[t].is_empty() {
                            continue;
                        }
                        let d = foreign
                            .center_distance_within(probe, profile, f64::INFINITY)
                            .expect("an unbounded question has an answer");
                        let reach = slices[t]
                            .iter()
                            .map(|&m| foreign.member_center_distance(m))
                            .fold(0.0, f64::max);
                        for &theta in &data.default_ladder {
                            if d <= theta + reach + 1e-9 {
                                continue;
                            }
                            cut += 1;
                            if d <= theta + foreign.radius() + 1e-9 {
                                inside_radius += 1;
                            }
                            let got = foreign.foreign_members(probe, profile, d, &slices[t], theta);
                            assert!(
                                got.is_empty(),
                                "S = {shards}: shard {s} local {c} → shard {t} at θ = {theta} \
                                 (d = {d}, reach = {reach}) kept {got:?}"
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(
        inside_radius > 0,
        "no case separates the reach cut-off from the radius one ({cut} cut)"
    );
}
