//! Differential correctness of the sharded deployment (DESIGN.md §14): for
//! every dataset kind, every (θ, k) in the standard grid, and every shard
//! count S ∈ {1, 2, 4, 8}, the coordinator's scatter-gather answer must be
//! **byte-identical** (`format!("{answer:?}")`) to the single-NbIndex
//! reference over the same live state — including after interleaved
//! insert/remove scripts (three fixed seeds plus proptest interleavings).
//! Under `--features invariant-audit` the per-shard index stacks run their
//! π̂/Thm audits inside every one of these runs.

use graphrep_core::{CancelToken, Cancelled, NbIndex, NbIndexConfig, PickEvent, Session};
use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_ged::{DistanceOracle, GedConfig, GedEngine};
use graphrep_graph::{generate::mutate, Graph, GraphId};
use graphrep_shard::{partition, CoordConfig, Coordinator, PartitionConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn index_config(ladder: &[f64]) -> NbIndexConfig {
    NbIndexConfig {
        num_vps: 4,
        ladder: ladder.to_vec(),
        ..Default::default()
    }
}

fn coord_config(shards: usize, ladder: &[f64]) -> CoordConfig {
    CoordConfig {
        shards,
        seed: 0xC0FFEE,
        ladder: ladder.to_vec(),
    }
}

/// The standard (θ, k) grid: two ladder rungs, the dataset default θ, and
/// one off-ladder θ, crossed with four k values.
fn theta_grid(ladder: &[f64], default_theta: f64) -> Vec<f64> {
    vec![
        ladder[1],
        ladder[ladder.len() / 2],
        default_theta,
        default_theta * 0.9 + 0.3,
    ]
}

const K_GRID: [usize; 4] = [1, 2, 5, 10];

/// Static grid: every kind × S × (θ, k), no mutations.
#[test]
fn grid_matches_single_index_reference() {
    for kind in [
        DatasetKind::DudLike,
        DatasetKind::DblpLike,
        DatasetKind::AmazonLike,
    ] {
        let data = DatasetSpec::new(kind, 32, 11).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let reference = NbIndex::build(oracle, index_config(&data.default_ladder));
        let relevant = data.default_query().relevant_set(&data.db);
        let ref_session = reference.start_session(relevant.clone());
        for shards in SHARD_COUNTS {
            let coord = Coordinator::build(
                &data.db,
                GedConfig::default(),
                &coord_config(shards, &data.default_ladder),
            );
            let session = coord.session(relevant.clone());
            for &theta in &theta_grid(&data.default_ladder, data.default_theta) {
                for k in K_GRID {
                    let (want, _) = ref_session.run(theta, k);
                    let (got, _) = session.run(theta, k);
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "{} diverged at S = {shards}, θ = {theta}, k = {k}",
                        kind.name()
                    );
                }
            }
        }
    }
}

/// Floor on the share of (pick, shard) pairs the π̂ bound aggregation
/// settles without fresh verification work at S = 8 (reads 0.719; the counts
/// are deterministic). Below it the scatter-gather is a broadcast.
const MIN_PRUNE_RATE_AT_8: f64 = 0.1;

/// The default query at a size where pruning has room to act: identical
/// answers at every S, and the bound aggregation actually prunes.
#[test]
fn default_query_prunes_shards_and_matches_reference() {
    let seed = 20140622;
    let data = DatasetSpec::new(DatasetKind::DudLike, 160, seed).generate();
    let relevant = data.default_query().relevant_set(&data.db);
    let (theta, k) = (data.default_theta, 8);
    let oracle = data.db.oracle(GedConfig::default());
    let reference = NbIndex::build(oracle, index_config(&data.default_ladder));
    let want = format!("{:?}", reference.query(relevant.clone(), theta, k).0);

    let mut rates = Vec::new();
    for shards in SHARD_COUNTS {
        let cfg = CoordConfig {
            shards,
            seed: seed ^ 0x5eed,
            ladder: data.default_ladder.clone(),
        };
        let coord = Coordinator::build(&data.db, GedConfig::default(), &cfg);
        let (got, stats) = coord.session(relevant.clone()).run(theta, k);
        assert_eq!(format!("{got:?}"), want, "diverged at S = {shards}");
        let rate = stats.prune_rate();
        assert!(
            (0.0..=1.0).contains(&rate),
            "S = {shards}: prune rate {rate} out of range"
        );
        rates.push(rate);
    }
    assert!(
        rates[1..].iter().any(|&r| r > 0.0),
        "bound aggregation never pruned a shard-pick pair at any S > 1: {rates:?}"
    );
    assert!(
        rates[3] >= MIN_PRUNE_RATE_AT_8,
        "S = 8: prune rate {} below the floor {MIN_PRUNE_RATE_AT_8}",
        rates[3]
    );
}

/// `n`-graph database ids drawn without replacement, in draw order.
fn random_subset(rng: &mut SmallRng, n: usize, size: usize) -> Vec<GraphId> {
    let mut ids = Vec::with_capacity(size);
    while ids.len() < size {
        let g = rng.gen_range(0..n) as GraphId;
        if !ids.contains(&g) {
            ids.push(g);
        }
    }
    ids
}

/// Relevant slices that reach only part of a shard's covering radius — so
/// each foreign center question is cut off short of `θ + radius_t` — answer
/// byte-identically to the single index: seeded random subsets of 1, 5 and
/// 20 graphs, and the default query with shard 0's slice cut to its center
/// alone, at every S ∈ {2, 4, 8} and every (θ, k) of the grid.
#[test]
fn short_reach_slices_match_single_index_reference() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 60, 20140622).generate();
    let oracle = data.db.oracle(GedConfig::default());
    let reference = NbIndex::build(oracle, index_config(&data.default_ladder));
    let mut rng = SmallRng::seed_from_u64(4401);
    let random: Vec<Vec<GraphId>> = [1, 5, 20]
        .into_iter()
        .map(|size| random_subset(&mut rng, data.db.len(), size))
        .collect();
    let default = data.default_query().relevant_set(&data.db);
    let mut short_slices = 0usize;
    for shards in [2, 4, 8] {
        let cfg = coord_config(shards, &data.default_ladder);
        let coord = Coordinator::build(&data.db, GedConfig::default(), &cfg);
        let snaps = coord.snapshots();
        let centers = partition(
            &data.db,
            GedConfig::default(),
            &PartitionConfig {
                shards,
                seed: cfg.seed,
            },
        )
        .centers;
        let mut center_only: Vec<GraphId> = default
            .iter()
            .copied()
            .filter(|&g| snaps[0].local_of(g).is_none())
            .collect();
        center_only.push(centers[0]);
        for relevant in random.iter().chain([&center_only]) {
            for snap in &snaps {
                let reach = relevant
                    .iter()
                    .filter_map(|&g| snap.local_of(g))
                    .map(|l| snap.member_center_distance(l))
                    .reduce(f64::max);
                if reach.is_some_and(|r| r < snap.radius()) {
                    short_slices += 1;
                }
            }
            let ref_session = reference.start_session(relevant.clone());
            let session = coord.session(relevant.clone());
            for &theta in &theta_grid(&data.default_ladder, data.default_theta) {
                for k in K_GRID {
                    let (want, _) = ref_session.run(theta, k);
                    let (got, _) = session.run(theta, k);
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "|L_q| = {} diverged at S = {shards}, θ = {theta}, k = {k}",
                        relevant.len()
                    );
                }
            }
        }
    }
    assert!(
        short_slices > 0,
        "no slice fell short of its shard's radius"
    );
}

/// Pairs a sharded coordinator with the single-index model of the same
/// mutation history; checkpoints must agree byte for byte at every epoch.
struct Harness {
    coord: Coordinator,
    reference: NbIndex,
    graphs: Vec<Graph>,
    live: Vec<bool>,
    ladder: Vec<f64>,
    default_theta: f64,
    ops: usize,
}

impl Harness {
    fn new(kind: DatasetKind, size: usize, shards: usize, seed: u64) -> Self {
        let data = DatasetSpec::new(kind, size, seed).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let reference = NbIndex::build(oracle, index_config(&data.default_ladder));
        let coord = Coordinator::build(
            &data.db,
            GedConfig::default(),
            &coord_config(shards, &data.default_ladder),
        );
        Harness {
            coord,
            reference,
            graphs: data.db.graphs().to_vec(),
            live: vec![true; data.db.len()],
            ladder: data.default_ladder.clone(),
            default_theta: data.default_theta,
            ops: 0,
        }
    }

    fn live_ids(&self) -> Vec<GraphId> {
        (0..self.graphs.len() as GraphId)
            .filter(|&g| self.live[g as usize])
            .collect()
    }

    fn insert(&mut self, rng: &mut SmallRng) {
        let ids = self.live_ids();
        let src = ids[rng.gen_range(0..ids.len())] as usize;
        let edits = 1 + rng.gen_range(0..3);
        let g = mutate(rng, &self.graphs[src], edits, &[0, 1], &[0]);
        let (ref_id, _) = self.reference.insert(g.clone()).expect("reference insert");
        let receipt = self.coord.insert(g.clone()).expect("sharded insert");
        assert_eq!(
            receipt.id, ref_id,
            "coordinator must assign the same global id as the single index"
        );
        self.graphs.push(g);
        self.live.push(true);
        self.ops += 1;
    }

    fn remove(&mut self, rng: &mut SmallRng) {
        let ids = self.live_ids();
        if ids.len() <= 6 {
            return;
        }
        let victim = ids[rng.gen_range(0..ids.len())];
        self.reference.remove(victim).expect("reference remove");
        let receipt = self.coord.remove(victim).expect("sharded remove");
        assert_eq!(receipt.id, victim);
        self.live[victim as usize] = false;
        self.ops += 1;
    }

    fn checkpoint(&mut self, rng: &mut SmallRng) {
        let live = self.live_ids();
        let want_session = self.reference.start_session(live.clone());
        let got_session = self.coord.session(live);
        for _ in 0..2 {
            let slot = rng.gen_range(0..self.ladder.len());
            let theta = if rng.gen_bool(0.5) {
                self.ladder[slot]
            } else {
                self.ladder[slot] * 0.9 + 0.3
            };
            let k = 1 + rng.gen_range(0..5);
            let (want, _) = want_session.run(theta, k);
            let (got, _) = got_session.run(theta, k);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "divergence after {} ops at θ = {theta}, k = {k}",
                self.ops
            );
            self.ops += 1;
        }
        // The dataset's default θ is the workload centerpiece; pin it too.
        let (want, _) = want_session.run(self.default_theta, 4);
        let (got, _) = got_session.run(self.default_theta, 4);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    fn run_script(&mut self, script: &[u8], rng: &mut SmallRng) {
        for &op in script {
            match op % 5 {
                0 | 1 => self.insert(rng),
                2 | 3 => self.remove(rng),
                _ => self.checkpoint(rng),
            }
        }
        self.checkpoint(rng);
    }
}

/// Interleaved mutations under three fixed seeds, across shard counts and
/// dataset kinds (rotated so each seed exercises a different pairing).
#[test]
fn mutation_scripts_three_seeds() {
    let kinds = [
        DatasetKind::DudLike,
        DatasetKind::DblpLike,
        DatasetKind::AmazonLike,
    ];
    for (i, seed) in [7301u64, 7302, 7303].into_iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shards = SHARD_COUNTS[1 + i % 3];
        let mut h = Harness::new(kinds[i % 3], 28, shards, seed);
        let script: Vec<u8> = (0..24).map(|_| rng.gen()).collect();
        h.run_script(&script, &mut rng);
        assert!(h.ops >= 20, "seed {seed}: expected ≥ 20 ops, ran {}", h.ops);
    }
}

/// Sharded queries must agree with a plain oracle-backed single index even
/// when the reference is built over an *independent* oracle (no shared
/// caches anywhere): byte-identity is a property of the metric, not of any
/// shared distance state.
#[test]
fn independent_reference_oracle_agrees() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 24, 3).generate();
    let fresh = Arc::new(DistanceOracle::new(
        Arc::new(data.db.graphs().to_vec()),
        GedEngine::new(GedConfig::default()),
    ));
    let reference = NbIndex::build(fresh, index_config(&data.default_ladder));
    let coord = Coordinator::build(
        &data.db,
        GedConfig::default(),
        &coord_config(4, &data.default_ladder),
    );
    let relevant = data.default_query().relevant_set(&data.db);
    let (want, _) = reference
        .start_session(relevant.clone())
        .run(data.default_theta, 5);
    let (got, _) = coord.session(relevant).run(data.default_theta, 5);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
}

/// The `Session` contract's "token first" clause, over both engines: an
/// already-expired token yields `Cancelled` before any work — whatever `k`
/// is, blocking or streamed, with no pick emitted — and the session answers
/// its next run exactly like the offline `run`.
#[test]
fn expired_token_cancels_before_any_work_on_both_engines() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 24, 3).generate();
    let oracle = data.db.oracle(GedConfig::default());
    let index = Arc::new(NbIndex::build(oracle, index_config(&data.default_ladder)));
    let coord = Coordinator::build(
        &data.db,
        GedConfig::default(),
        &coord_config(3, &data.default_ladder),
    );
    let relevant = data.default_query().relevant_set(&data.db);
    let theta = data.default_theta;
    let want = format!(
        "{:?}",
        index.start_session(relevant.clone()).run(theta, 3).0
    );
    let engines: [(&str, Box<dyn Session>); 2] = [
        (
            "single",
            Box::new(Arc::clone(&index).start_session_shared(relevant.clone())),
        ),
        ("sharded", Box::new(coord.session(relevant))),
    ];
    for (engine, session) in &engines {
        for k in [0usize, 3] {
            for streamed in [false, true] {
                let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
                let mut picks = 0usize;
                let mut count = |_| {
                    picks += 1;
                    true
                };
                let on_pick: Option<&mut dyn FnMut(PickEvent) -> bool> =
                    if streamed { Some(&mut count) } else { None };
                let got = session.run_with(theta, k, &expired, on_pick);
                assert!(
                    matches!(got, Err(Cancelled)),
                    "{engine}, k = {k}, streamed = {streamed}: {got:?}"
                );
                assert_eq!(picks, 0, "{engine}, k = {k}: picks before the token check");
                let (after, _) = session
                    .run_with(theta, 3, &CancelToken::never(), None)
                    .expect("a never-token cannot cancel");
                assert_eq!(
                    format!("{after:?}"),
                    want,
                    "{engine} unusable after the abort"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Randomized interleavings over random shard counts: any script must
    /// keep the coordinator byte-identical to the single-index reference at
    /// every checkpoint.
    #[test]
    fn random_scripts_match_reference(
        seed in 0u64..10_000,
        shards_ix in 0usize..4,
        script in collection::vec(0u8..255, 8..16),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut h = Harness::new(
            DatasetKind::DudLike,
            22,
            SHARD_COUNTS[shards_ix],
            seed ^ 0x5A5A,
        );
        h.run_script(&script, &mut rng);
    }
}
