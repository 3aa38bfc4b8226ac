//! Differential equivalence under online mutation (DESIGN.md §10): random
//! interleavings of insert / remove / query / refine must leave the mutated
//! NB-Index answering **byte-identically** to an index built from scratch
//! over the same live state, at every checkpoint. Tree invariants (radius /
//! diameter containment, live counts) are re-validated after every op; with
//! `--features invariant-audit` the π̂ ceiling audits also fire inside every
//! session initialization these checkpoints perform.

use graphrep_core::{MutationOutcome, NbIndex, NbIndexConfig};
use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_ged::{DistanceOracle, GedConfig, GedEngine};
use graphrep_graph::{generate::mutate, Graph, GraphId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn index_config(ladder: &[f64]) -> NbIndexConfig {
    NbIndexConfig {
        num_vps: 4,
        ladder: ladder.to_vec(),
        ..Default::default()
    }
}

/// The harness pairs a mutated index with a model of the state it should be
/// in: the full id space (tombstoned graphs keep their slot) plus live
/// flags. A reference oracle over the same id space is grown alongside so
/// checkpoint rebuilds share one distance cache — distances are
/// deterministic, so caching cannot change any answer.
struct Harness {
    index: NbIndex,
    ref_oracle: Arc<DistanceOracle>,
    graphs: Vec<Graph>,
    live: Vec<bool>,
    ladder: Vec<f64>,
    ops: usize,
}

impl Harness {
    fn new(size: usize, seed: u64) -> Self {
        let data = DatasetSpec::new(DatasetKind::DudLike, size, seed).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let index = NbIndex::build(oracle, index_config(&data.default_ladder));
        let graphs = data.db.graphs().to_vec();
        let ref_oracle = Arc::new(DistanceOracle::new(
            Arc::new(graphs.clone()),
            GedEngine::new(GedConfig::default()),
        ));
        Harness {
            index,
            ref_oracle,
            live: vec![true; graphs.len()],
            graphs,
            ladder: data.default_ladder.clone(),
            ops: 0,
        }
    }

    fn live_ids(&self) -> Vec<GraphId> {
        (0..self.graphs.len() as GraphId)
            .filter(|&g| self.live[g as usize])
            .collect()
    }

    fn validate(&self) {
        self.index
            .tree()
            .validate(self.index.oracle())
            .expect("tree invariants must hold after every mutation");
        assert_eq!(self.index.tree().len(), self.graphs.len());
        assert_eq!(
            self.index.tree().live_len(),
            self.live.iter().filter(|&&l| l).count()
        );
    }

    fn insert(&mut self, rng: &mut SmallRng) -> MutationOutcome {
        let ids = self.live_ids();
        let src = ids[rng.gen_range(0..ids.len())] as usize;
        let edits = 1 + rng.gen_range(0..3);
        let g = mutate(rng, &self.graphs[src], edits, &[0, 1], &[0]);
        let (id, out) = self.index.insert(g.clone()).expect("insert must succeed");
        assert_eq!(id as usize, self.graphs.len(), "ids are allocated densely");
        self.ref_oracle = Arc::new(self.ref_oracle.extended(g.clone()));
        self.graphs.push(g);
        self.live.push(true);
        self.ops += 1;
        self.validate();
        out
    }

    fn remove(&mut self, rng: &mut SmallRng) -> MutationOutcome {
        let ids = self.live_ids();
        // Keep enough graphs alive for queries to stay interesting.
        if ids.len() <= 6 {
            return MutationOutcome::Applied;
        }
        let victim = ids[rng.gen_range(0..ids.len())];
        let out = self.index.remove(victim).expect("remove must succeed");
        self.live[victim as usize] = false;
        self.ops += 1;
        self.validate();
        out
    }

    /// One differential checkpoint: a session on the mutated index and a
    /// session on a from-scratch rebuild answer an identical (θ, k)
    /// refinement sequence; every answer must match byte for byte.
    fn checkpoint(&mut self, rng: &mut SmallRng) {
        let reference = NbIndex::build(Arc::clone(&self.ref_oracle), index_config(&self.ladder));
        let live = self.live_ids();
        let got_session = self.index.start_session(live.clone());
        let want_session = reference.start_session(live);
        let refinements = 1 + rng.gen_range(0..3);
        for _ in 0..refinements {
            let slot = rng.gen_range(0..self.ladder.len());
            let theta = if rng.gen_bool(0.5) {
                self.ladder[slot]
            } else {
                // Off-ladder θ exercises the interpolation path too.
                self.ladder[slot] * 0.9 + 0.3
            };
            let k = 1 + rng.gen_range(0..5);
            let (got, _) = got_session.run(theta, k);
            let (want, _) = want_session.run(theta, k);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "divergence after {} ops at θ = {theta}, k = {k}",
                self.ops
            );
            self.ops += 1;
        }
    }

    /// Runs a scripted op sequence: each byte picks insert / remove /
    /// checkpoint, with a final checkpoint so every sequence ends verified.
    fn run_script(&mut self, script: &[u8], rng: &mut SmallRng) {
        for &op in script {
            match op % 5 {
                0 | 1 => {
                    self.insert(rng);
                }
                2 | 3 => {
                    self.remove(rng);
                }
                _ => self.checkpoint(rng),
            }
        }
        self.checkpoint(rng);
    }
}

/// The acceptance workload: three seeds, ≥ 200 ops in total per seed-set,
/// with every checkpoint byte-identical to a fresh rebuild.
#[test]
fn differential_equivalence_three_seeds() {
    for seed in [5101u64, 5102, 5103] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut h = Harness::new(36, seed);
        let script: Vec<u8> = (0..100).map(|_| rng.gen()).collect();
        h.run_script(&script, &mut rng);
        assert!(
            h.ops >= 100,
            "seed {seed}: expected at least 100 ops, ran {}",
            h.ops
        );
    }
}

/// Tombstone churn heavy enough to trip the rebuild policy repeatedly must
/// still agree with fresh rebuilds.
#[test]
fn rebuild_policy_churn_stays_equivalent() {
    let mut rng = SmallRng::seed_from_u64(2026);
    let mut h = Harness::new(30, 2026);
    h.index.set_policy(graphrep_core::MutationPolicy {
        max_tombstone_ratio: 0.15,
        ..Default::default()
    });
    let mut rebuilds = 0;
    for round in 0..10 {
        let outs = [h.insert(&mut rng), h.remove(&mut rng), h.remove(&mut rng)];
        rebuilds += outs
            .iter()
            .filter(|&&o| o == MutationOutcome::Rebuilt)
            .count();
        if round % 3 == 0 {
            h.checkpoint(&mut rng);
        }
    }
    h.checkpoint(&mut rng);
    assert!(rebuilds > 0, "the 0.15 ratio must trip at least once");
}

/// The benchmark's in-memory insert tail — the n = 240 DudLike fixture, the
/// index configuration `graphrep-serve` builds, the next four graphs of the
/// same generation — is absorbed incrementally under the default policy.
/// Before inflation was weighted by live share, routing one graph at
/// distance 6–9 into a singleton bottom (radius 0) read 6–9 against the
/// budget of 4.0 on its own, so every one of these inserts rebuilt the
/// index. An explicit small budget still trips.
#[test]
fn default_policy_absorbs_the_benchmark_insert_tail() {
    const N: usize = 240;
    const TAIL: usize = 4;
    // The generator is prefix-stable: graphs 0..N are the N-graph dataset.
    let pool = DatasetSpec::new(DatasetKind::DudLike, N + TAIL + 1, 20140622).generate();
    let data = DatasetSpec::new(DatasetKind::DudLike, N, 20140622).generate();
    let config = NbIndexConfig {
        ladder: data.default_ladder.clone(),
        ..Default::default()
    };
    let mut index = NbIndex::build(data.db.oracle(GedConfig::default()), config.clone());
    for g in &pool.db.graphs()[N..N + TAIL] {
        let (_, out) = index.insert(g.clone()).expect("insert must succeed");
        assert_eq!(out, MutationOutcome::Applied);
    }
    index
        .tree()
        .validate(index.oracle())
        .expect("tree invariants must hold after the tail");

    let reference = NbIndex::build(
        Arc::new(DistanceOracle::new(
            Arc::new(pool.db.graphs()[..N + TAIL].to_vec()),
            GedEngine::new(GedConfig::default()),
        )),
        config,
    );
    let mut relevant = data.default_query().relevant_set(&data.db);
    relevant.extend((N..N + TAIL).map(|g| g as GraphId));
    let got_session = index.start_session(relevant.clone());
    let want_session = reference.start_session(relevant);
    for (theta, k) in [(data.default_theta, 10), (6.5, 5), (2.5, 20)] {
        let (got, _) = got_session.run(theta, k);
        let (want, _) = want_session.run(theta, k);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "θ = {theta}, k = {k}"
        );
    }

    assert!(index.inflation() > 0.0, "the tail re-expanded some radius");
    index.set_policy(graphrep_core::MutationPolicy {
        radius_inflation_budget: index.inflation() / 2.0,
        ..Default::default()
    });
    let (_, out) = index.insert(pool.db.graphs()[N + TAIL].clone()).unwrap();
    assert_eq!(out, MutationOutcome::Rebuilt);
    assert_eq!(index.inflation(), 0.0);
}

/// Insert routing prunes its per-level centroid sweep with the vantage lower
/// bounds but must choose exactly what the exhaustive sweep chooses: the
/// child whose centroid is nearest, ties to the lowest child index. Each
/// insert's expected bottom cluster is found by walking the pre-insert tree
/// with a test-local sweep over a reference oracle that holds the same ids;
/// after an incrementally applied insert the new graph's leaf position must
/// sit in that bottom's range (ranges nest and siblings are disjoint, so this
/// pins every level's choice). The index after the whole script must be
/// byte-identical to the one the full-sweep router produced: the digests
/// below were taken from that router (over the `index.bin` payload, which
/// format version 3 left unchanged).
#[test]
fn insert_routing_matches_the_exhaustive_sweep() {
    const TAIL: usize = 12;
    for (n, seed, digest) in [
        (160, 3101, 0xcf11_d5cb_43db_7d92u64),
        (240, 20140622, 0x7b14_823a_959e_5ca3u64),
    ] {
        // The generator is prefix-stable: graphs 0..n are the n-graph dataset.
        let pool = DatasetSpec::new(DatasetKind::DudLike, n + TAIL, seed).generate();
        let data = DatasetSpec::new(DatasetKind::DudLike, n, seed).generate();
        let config = NbIndexConfig {
            ladder: data.default_ladder.clone(),
            ..Default::default()
        };
        let mut index = NbIndex::build(data.db.oracle(GedConfig::default()), config);
        let reference = DistanceOracle::new(
            Arc::new(pool.db.graphs().to_vec()),
            GedEngine::new(GedConfig::default()),
        );
        let mut checked = 0;
        for (t, g) in pool.db.graphs()[n..].iter().enumerate() {
            let id = (n + t) as GraphId;
            let tree = index.tree();
            let mut cur = tree.root().expect("a built tree has a root");
            while !tree.node(cur).is_bottom() {
                let children = &tree.node(cur).children;
                let mut best = (f64::INFINITY, 0);
                for (i, &c) in children.iter().enumerate() {
                    let d = reference.distance(id, tree.node(c).centroid);
                    if d < best.0 {
                        best = (d, i);
                    }
                }
                cur = children[best.1];
            }
            let (got, out) = index.insert(g.clone()).expect("insert must succeed");
            assert_eq!(got, id);
            if out == MutationOutcome::Applied {
                let bottom = index.tree().node(cur);
                let pos = index.tree().pos_of(id);
                assert!(
                    (bottom.start..bottom.end).contains(&pos),
                    "n = {n}, insert {t}: routed away from the nearest-centroid path"
                );
                checked += 1;
            }
        }
        assert!(
            checked > TAIL / 2,
            "n = {n}: only {checked} inserts applied"
        );
        index
            .tree()
            .validate(index.oracle())
            .expect("tree invariants must hold after the script");
        // The payload after the 28-byte header: the digest pins the index,
        // not the format version.
        assert_eq!(
            graphrep_core::fnv1a64(&index.save_bin()[28..]),
            digest,
            "n = {n}: the routed index differs from the full sweep's"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Randomized op interleavings: any script over any seed must keep the
    /// mutated index equivalent to a fresh rebuild at every checkpoint.
    #[test]
    fn random_op_sequences_match_fresh_rebuild(
        seed in 0u64..10_000,
        script in collection::vec(0u8..255, 12..24),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut h = Harness::new(24, seed ^ 0xA5A5);
        h.run_script(&script, &mut rng);
    }
}
