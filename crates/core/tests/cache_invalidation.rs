//! Cache soundness under online mutation (DESIGN.md §11): with one shared
//! [`ViewStore`] and [`AnswerCache`] living across every mutation epoch, a
//! cached answer must **never** be served across an epoch boundary. The
//! proof is differential, extending the `mutation_equivalence` harness:
//! after random interleavings of insert / remove / query, every cached run
//! on the mutated index is compared byte-for-byte against a from-scratch
//! rebuild over the same live state. Epoch keying alone must make the
//! caches sound — explicit `invalidate_all` is a memory measure, so the
//! harness runs both with and without it.

use graphrep_core::{
    AnswerCache, AnswerSet, CacheConfig, CancelToken, NbIndex, NbIndexConfig, QuerySession,
    Session, ViewStore,
};
use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_ged::{DistanceOracle, GedConfig, GedEngine};
use graphrep_graph::{generate::mutate, Graph, GraphId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A cached run nobody can cancel: the answer and whether it was a hit.
fn run_cached(session: &QuerySession<&NbIndex>, theta: f64, k: usize) -> (Arc<AnswerSet>, bool) {
    let (answer, stats) = session
        .run_with(theta, k, &CancelToken::never(), None)
        .expect("a never-token cannot cancel");
    (answer, stats.cached)
}

fn index_config(ladder: &[f64]) -> NbIndexConfig {
    NbIndexConfig {
        num_vps: 4,
        ladder: ladder.to_vec(),
        ..Default::default()
    }
}

/// A mutated index paired with a model of its live state, a reference
/// oracle for from-scratch rebuilds, and — unlike `mutation_equivalence` —
/// one view store and one answer cache shared across *all* epochs.
struct Harness {
    index: NbIndex,
    views: Arc<ViewStore>,
    answers: Arc<AnswerCache>,
    /// When set, mutations also wipe the caches (the serving layer's
    /// policy); soundness must hold either way.
    invalidate_on_mutation: bool,
    ref_oracle: Arc<DistanceOracle>,
    graphs: Vec<Graph>,
    live: Vec<bool>,
    ladder: Vec<f64>,
    ops: usize,
}

impl Harness {
    fn new(size: usize, seed: u64, invalidate_on_mutation: bool) -> Self {
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
            views: Arc::new(ViewStore::new(CacheConfig::default())),
            answers: Arc::new(AnswerCache::new(CacheConfig::default())),
            invalidate_on_mutation,
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

    fn after_mutation(&mut self) {
        self.ops += 1;
        if self.invalidate_on_mutation {
            self.views.invalidate_all();
            self.answers.invalidate_all();
        }
    }

    fn insert(&mut self, rng: &mut SmallRng) {
        let ids = self.live_ids();
        let src = ids[rng.gen_range(0..ids.len())] as usize;
        let edits = 1 + rng.gen_range(0..3);
        let g = mutate(rng, &self.graphs[src], edits, &[0, 1], &[0]);
        self.index.insert(g.clone()).expect("insert must succeed");
        self.ref_oracle = Arc::new(self.ref_oracle.extended(g.clone()));
        self.graphs.push(g);
        self.live.push(true);
        self.after_mutation();
    }

    fn remove(&mut self, rng: &mut SmallRng) {
        let ids = self.live_ids();
        // Keep enough graphs alive for queries to stay interesting.
        if ids.len() <= 6 {
            return;
        }
        let victim = ids[rng.gen_range(0..ids.len())];
        self.index.remove(victim).expect("remove must succeed");
        self.live[victim as usize] = false;
        self.after_mutation();
    }

    /// One differential checkpoint: every (θ, k) is run **twice** through
    /// the shared caches — the repeat must report `cached == true` — and
    /// both results must match a from-scratch rebuild byte for byte. A hit
    /// carried over an epoch boundary would diverge here, because the
    /// rebuild only ever sees the current live state.
    fn checkpoint(&mut self, rng: &mut SmallRng) {
        let reference = NbIndex::build(Arc::clone(&self.ref_oracle), index_config(&self.ladder));
        let live = self.live_ids();
        let got_session = self
            .index
            .start_session(live.clone())
            .with_views(Arc::clone(&self.views))
            .with_answers(Arc::clone(&self.answers));
        let want_session = reference.start_session(live);
        let refinements = 1 + rng.gen_range(0..3);
        for _ in 0..refinements {
            let slot = rng.gen_range(0..self.ladder.len());
            let theta = if rng.gen_bool(0.5) {
                self.ladder[slot]
            } else {
                self.ladder[slot] * 0.9 + 0.3
            };
            let k = 1 + rng.gen_range(0..5);
            let (want, _) = want_session.run(theta, k);
            let want_fp = format!("{want:?}");
            let (first, _) = run_cached(&got_session, theta, k);
            assert_eq!(
                format!("{:?}", *first),
                want_fp,
                "divergence after {} ops at epoch {}, θ = {theta}, k = {k}",
                self.ops,
                self.index.epoch(),
            );
            let (again, cached) = run_cached(&got_session, theta, k);
            assert!(cached, "repeat of (θ = {theta}, k = {k}) must hit");
            assert_eq!(
                format!("{:?}", *again),
                want_fp,
                "cached repeat diverged at epoch {}, θ = {theta}, k = {k}",
                self.index.epoch(),
            );
            self.ops += 1;
        }
        for c in [self.answers.counters(), self.views.counters()] {
            assert_eq!(c.lookups, c.hits + c.misses, "conservation broke: {c:?}");
            assert!(c.evictions <= c.insertions, "over-eviction: {c:?}");
        }
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

/// Epoch keying alone (no explicit invalidation) keeps one long-lived
/// cache pair sound across three seeds of mutation churn; repeats hit.
#[test]
fn epoch_keys_alone_keep_shared_caches_sound() {
    for seed in [6101u64, 6102, 6103] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut h = Harness::new(30, seed, false);
        let script: Vec<u8> = (0..40).map(|_| rng.gen()).collect();
        h.run_script(&script, &mut rng);
        let a = h.answers.counters();
        assert!(a.hits > 0, "seed {seed}: repeats never hit: {a:?}");
        assert_eq!(
            a.invalidated, 0,
            "seed {seed}: nothing should be invalidated in this mode"
        );
    }
}

/// The serving layer's policy — wipe both caches on every mutation — must
/// agree with fresh rebuilds too, and the history counters must survive
/// the wipes monotonically.
#[test]
fn explicit_invalidation_keeps_history_and_soundness() {
    let mut rng = SmallRng::seed_from_u64(7207);
    let mut h = Harness::new(30, 7207, true);
    let script: Vec<u8> = (0..40).map(|_| rng.gen()).collect();
    let mut last_hits = 0u64;
    for chunk in script.chunks(8) {
        h.run_script(chunk, &mut rng);
        let a = h.answers.counters();
        assert!(a.hits >= last_hits, "hit counter went backwards: {a:?}");
        last_hits = a.hits;
    }
    let a = h.answers.counters();
    assert!(
        a.invalidated > 0,
        "mutations must have wiped entries: {a:?}"
    );
    assert!(a.hits > 0, "within-epoch repeats must still hit: {a:?}");
}

/// A stale entry planted under an old epoch is unreachable after any
/// mutation: the epoch in the key changes, so the poisoned answer can
/// never be served again.
#[test]
fn stale_epoch_entries_are_unreachable_after_mutation() {
    let mut rng = SmallRng::seed_from_u64(99);
    let mut h = Harness::new(24, 99, false);
    let theta = h.ladder[1];
    let epoch0 = h.index.epoch();

    let session = h
        .index
        .start_session(h.live_ids())
        .with_views(Arc::clone(&h.views))
        .with_answers(Arc::clone(&h.answers));
    let (_, cached) = run_cached(&session, theta, 3);
    assert!(!cached, "first run must miss");
    let (_, cached) = run_cached(&session, theta, 3);
    assert!(cached, "repeat within the epoch must hit");
    drop(session);

    h.insert(&mut rng);
    assert_ne!(h.index.epoch(), epoch0, "insert must bump the epoch");
    let session = h
        .index
        .start_session(h.live_ids())
        .with_views(Arc::clone(&h.views))
        .with_answers(Arc::clone(&h.answers));
    let (_, cached) = run_cached(&session, theta, 3);
    assert!(!cached, "epoch bump must force a recompute");
    h.checkpoint(&mut rng);
}

/// Rows change where a verdict is read from, never which engine work is
/// done: a views-off build (capacity 0) and a views-on build refine one
/// session up a θ ladder, back down it, and past its top, with `k` large
/// enough that every run covers the whole relevant set; after every run the
/// answers are byte-identical and the two cold oracles have made the same
/// engine calls with the same tier verdicts. Going down, every neighborhood
/// is covered by a row.
#[test]
fn views_never_change_engine_work() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 60, 2801).generate();
    let build = |capacity| {
        let oracle = data.db.oracle(GedConfig::default());
        let index = NbIndex::build(oracle, index_config(&data.default_ladder));
        let views = Arc::new(ViewStore::new(CacheConfig { capacity }));
        (index, views)
    };
    let (off_index, off_views) = build(0);
    let (on_index, on_views) = build(CacheConfig::default().capacity);
    let built = off_index.oracle().engine_calls();
    let relevant = data.default_query().relevant_set(&data.db);
    let k = relevant.len();
    let off = off_index
        .start_session(relevant.clone())
        .with_views(Arc::clone(&off_views));
    let on = on_index
        .start_session(relevant)
        .with_views(Arc::clone(&on_views));

    // Half-unit steps where neighborhoods still grow (distances here are
    // integral, so each whole step adds members a narrower row lacks), then
    // the index's ladder.
    let mut ascending: Vec<f64> = (2..=9).map(|i| f64::from(i) / 2.0).collect();
    ascending.extend_from_slice(&data.default_ladder);
    ascending.sort_by(f64::total_cmp);
    ascending.dedup();
    let descending: Vec<f64> = ascending.iter().rev().copied().collect();
    let above = [ascending[ascending.len() - 1] * 1.5];
    let mut hits_before_descent = 0;
    for (leg, thetas) in [
        ("up", &ascending[..]),
        ("down", &descending),
        ("above", &above),
    ] {
        if leg == "down" {
            hits_before_descent = on_views.counters().hits;
        }
        for &theta in thetas {
            let (want, _) = off.run(theta, k);
            let (got, stats) = on.run(theta, k);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{leg} θ = {theta}");
            assert_eq!(
                on_index.oracle().engine_calls(),
                off_index.oracle().engine_calls(),
                "{leg} θ = {theta}"
            );
            assert_eq!(
                on_index.oracle().tier_stats(),
                off_index.oracle().tier_stats(),
                "{leg} θ = {theta}"
            );
            if leg == "down" {
                assert_eq!(stats.verified_graphs, 0, "θ = {theta} lies under a row");
            }
        }
    }
    assert!(
        off_index.oracle().engine_calls() > built,
        "the runs paid no engine work"
    );
    assert_eq!(off_views.counters().hits, 0);
    assert!(
        on_views.counters().hits > hits_before_descent,
        "the descending leg must hit rows: {:?}",
        on_views.counters()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Randomized op interleavings over long-lived shared caches: any
    /// script over any seed must keep every cached answer byte-identical
    /// to a fresh rebuild at every checkpoint.
    #[test]
    fn random_op_sequences_never_serve_stale_answers(
        seed in 0u64..10_000,
        invalidate_sel in 0u8..2,
        script in collection::vec(0u8..255, 10..20),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut h = Harness::new(22, seed ^ 0x5A5A, invalidate_sel == 1);
        h.run_script(&script, &mut rng);
    }
}
