//! Mutations racing live query traffic (DESIGN.md §10): eight client
//! threads hammer the worker pool with open/run/refine/close while the main
//! thread interleaves inserts and removes over the wire. The checks:
//!
//! * **no lost updates** — every mutation receipt carries the next epoch,
//!   and the final index state reflects every op;
//! * **serializability** — every answer pair a session produced matches the
//!   offline reference at *some* mutation epoch (sessions pin an immutable
//!   snapshot, so both answers of a pair must come from the same epoch);
//! * **counter conservation** — oracle counters carry forward across the
//!   fork/swap each mutation performs, so serving-time deltas never move
//!   backwards.
//!
//! And at the registry, with no wire in between: a session opened while
//! inserts land is pinned to *one* epoch — its `L_q` is the offline
//! quantile over exactly the rows its pinned index (or shard vector) holds —
//! and generations pinned on either side of an insert share one distance
//! memo, so a pair decided through one is never paid for through the other.

use graphrep_core::{NbIndex, NbIndexConfig, RelevanceQuery, Scorer};
use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_ged::{DistanceOracle, GedConfig, GedEngine};
use graphrep_graph::{generate::mutate, Graph, GraphId};
use graphrep_serve::protocol::OracleDelta;
use graphrep_serve::registry::load_in_memory;
use graphrep_serve::{start, Client, DatasetRegistry, ServeConfig, ServeError, ShardedDataset};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const QUANTILE: f64 = 0.75;
const BASE: usize = 30;
const SEED: u64 = 909;

fn wire_parts(g: &Graph) -> (Vec<u32>, Vec<(u16, u16, u32)>) {
    let nodes = g.node_labels().to_vec();
    let edges = g.edges().iter().map(|e| (e.u, e.v, e.label)).collect();
    (nodes, edges)
}

/// The offline answer fingerprints for the state after `epoch` mutations,
/// computed from scratch exactly like the server's offline verifier would.
fn reference_pair(
    base: &graphrep_core::GraphDatabase,
    inserts: &[(Graph, Vec<f64>)],
    removes: &[GraphId],
    oracles: &[Arc<DistanceOracle>],
    ladder: &[f64],
    queries: &[(f64, usize)],
    epoch: usize,
) -> Vec<String> {
    // Ops alternate insert, remove, insert, remove, …
    let ins = epoch.div_ceil(2);
    let rem = epoch / 2;
    let mut db = base.clone();
    for (g, f) in &inserts[..ins] {
        db = db.pushed(g.clone(), f.clone());
    }
    let mut live = vec![true; db.len()];
    for &victim in &removes[..rem] {
        live[victim as usize] = false;
    }
    let index = NbIndex::build(
        Arc::clone(&oracles[ins]),
        NbIndexConfig {
            num_vps: 4,
            ladder: ladder.to_vec(),
            ..Default::default()
        },
    );
    // Mirrors `LoadedDataset::relevant_for`: the quantile is taken over the
    // whole database (tombstoned ids included); liveness filtering happens
    // at the session boundary.
    let mut relevant = offline_relevant(&db);
    relevant.retain(|&g| live[g as usize]);
    let session = index.start_session(relevant);
    queries
        .iter()
        .map(|&(theta, k)| format!("{:?}", session.run(theta, k).0))
        .collect()
}

#[test]
fn mutations_race_eight_query_threads() {
    let data = DatasetSpec::new(DatasetKind::DudLike, BASE, SEED).generate();
    let theta = data.default_theta;
    let ladder = data.default_ladder.clone();
    let base_db = data.db.clone();
    let queries = [(theta, 3usize), (theta + 1.0, 2usize)];

    // Pre-plan the mutation schedule so the offline replay is exact.
    let mut rng = SmallRng::seed_from_u64(77);
    let inserts: Vec<(Graph, Vec<f64>)> = (0..4)
        .map(|i| {
            let g = mutate(&mut rng, base_db.graph(i), 2, &[0, 1], &[0]);
            (g, base_db.features(i).to_vec())
        })
        .collect();
    let removes: Vec<GraphId> = vec![3, 11, 17, 23];

    // Reference oracles per number-of-inserts, sharing one distance cache
    // via `extended` (distances are deterministic, so caching cannot change
    // any reference answer).
    let mut oracles = vec![Arc::new(DistanceOracle::new(
        base_db.graphs_arc(),
        GedEngine::new(GedConfig::default()),
    ))];
    for (g, _) in &inserts {
        let prev = oracles.last().expect("non-empty");
        oracles.push(Arc::new(prev.extended(g.clone())));
    }

    let mut reg = DatasetRegistry::new();
    reg.insert(load_in_memory("d", data));
    let ds = reg.get("d").expect("registered");
    let handle = start(
        ServeConfig {
            workers: 4,
            ..Default::default()
        },
        reg,
    )
    .expect("server starts");
    let addr = handle.addr().to_string();

    // Eight query threads: open a session (pinning a snapshot), answer the
    // fixed query pair inside it, close, repeat until told to stop.
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for t in 0..8 {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        let h = thread::Builder::new()
            .name(format!("mut-query-{t}"))
            .spawn(move || -> Vec<Vec<String>> {
                let mut client = Client::connect(&addr).expect("connect");
                let mut pairs = Vec::new();
                loop {
                    let done = stop.load(Ordering::Relaxed);
                    let opened = client.open("d", QUANTILE).expect("open");
                    let pair = queries
                        .iter()
                        .map(|&(theta, k)| {
                            client
                                .run_answer(opened.session, theta, k)
                                .expect("run")
                                .fingerprint()
                        })
                        .collect();
                    client.close(opened.session).expect("close");
                    pairs.push(pair);
                    if done {
                        // One final pair after the stop flag guarantees the
                        // post-churn state is observed too.
                        return pairs;
                    }
                }
            })
            .expect("spawn");
        threads.push(h);
    }

    // Interleave the mutations over the wire while the threads run.
    let mut mclient = Client::connect(&addr).expect("connect mutator");
    let warmup = mclient.stats().expect("stats");
    let before = warmup.datasets[0].oracle.clone();
    let mut expected_epoch = 0u64;
    for i in 0..inserts.len() {
        let (g, f) = &inserts[i];
        let (nodes, edges) = wire_parts(g);
        let receipt = mclient
            .insert("d", nodes, edges, f.clone())
            .expect("insert");
        expected_epoch += 1;
        assert_eq!(
            receipt.epoch, expected_epoch,
            "insert receipt must carry the next epoch (no lost updates)"
        );
        assert_eq!(receipt.id as usize, BASE + i);
        thread::sleep(Duration::from_millis(15));

        let receipt = mclient.remove("d", removes[i]).expect("remove");
        expected_epoch += 1;
        assert_eq!(
            receipt.epoch, expected_epoch,
            "remove receipt must carry the next epoch (no lost updates)"
        );
        thread::sleep(Duration::from_millis(15));
    }
    stop.store(true, Ordering::Relaxed);

    let mut all_pairs: Vec<Vec<String>> = Vec::new();
    for h in threads {
        all_pairs.extend(h.join().expect("query thread must not panic"));
    }

    // No lost updates: the final index state reflects every op.
    let final_index = ds.as_single().expect("single-index dataset").index_arc();
    assert_eq!(final_index.epoch(), 8);
    assert_eq!(final_index.tree().len(), BASE + inserts.len());
    assert_eq!(final_index.tree().live_len(), BASE);
    assert_eq!(final_index.tree().tombstones(), removes.len());

    // Serializability: each observed pair must equal the offline reference
    // at some epoch. Sessions pin one snapshot, so a pair mixing two epochs
    // would be unmatchable.
    let references: Vec<Vec<String>> = (0..=8)
        .map(|e| reference_pair(&base_db, &inserts, &removes, &oracles, &ladder, &queries, e))
        .collect();
    assert!(!all_pairs.is_empty());
    for (i, pair) in all_pairs.iter().enumerate() {
        assert!(
            references.contains(pair),
            "pair {i} matches no mutation epoch: {pair:?}"
        );
    }
    // The post-churn epoch must actually have been observed (each thread
    // records one pair after the stop flag, and by then all 8 ops applied).
    assert!(
        all_pairs.contains(&references[8]),
        "final state was never observed"
    );

    // Counter conservation: serving deltas never move backwards across the
    // eight oracle swaps the mutations performed.
    let after = mclient.stats().expect("stats").datasets[0].oracle.clone();
    assert_monotone(&before, &after);
    assert!(
        after.distance_computations + after.cache_hits + after.ub_accepts + after.within_rejections
            > 0,
        "query traffic must have produced oracle activity"
    );

    handle.shutdown();
}

/// Delta monotonicity helper: every counter in `after` must be ≥ `before`.
fn assert_monotone(before: &OracleDelta, after: &OracleDelta) {
    let f = |d: &OracleDelta| {
        [
            d.distance_computations,
            d.within_rejections,
            d.cache_hits,
            d.ub_accepts,
            d.engine_calls,
            d.size_rejects,
            d.label_rejects,
            d.degree_rejects,
            d.vantage_lb_rejects,
            d.vantage_ub_accepts,
        ]
    };
    for (b, a) in f(before).into_iter().zip(f(after)) {
        assert!(
            a >= b,
            "oracle delta moved backwards across a mutation swap: {before:?} -> {after:?}"
        );
    }
}

/// The default relevance function over `db`, as the registry computes it.
fn offline_relevant(db: &graphrep_core::GraphDatabase) -> Vec<GraphId> {
    let scorer = Scorer::MeanOfDims((0..db.dims()).collect());
    RelevanceQuery::top_quantile(db, scorer, QUANTILE).relevant_set(db)
}

/// Inserts `pool` on one thread while this one opens sessions; `open`
/// reports the mutations its session is pinned behind plus its `L_q`, which
/// must equal `expected[mutations]` — index and feature rows read at one
/// epoch, never one of each.
fn open_sessions_during_inserts(
    pool: &[(Graph, Vec<f64>)],
    expected: &[Vec<GraphId>],
    insert: impl Fn(Graph, Vec<f64>) -> Result<(), ServeError> + Sync,
    open: impl Fn() -> (usize, Vec<GraphId>),
) {
    let done = AtomicBool::new(false);
    thread::scope(|scope| {
        scope.spawn(|| {
            for (g, f) in pool {
                insert(g.clone(), f.clone()).expect("insert");
            }
            done.store(true, Ordering::SeqCst);
        });
        let mut last = 0;
        while last < pool.len() {
            let finished = done.load(Ordering::SeqCst);
            let (mutations, relevant) = open();
            assert_eq!(
                relevant, expected[mutations],
                "session pinned behind {mutations} insert(s) holds another epoch's L_q"
            );
            assert!(mutations >= last, "a later session pinned an earlier epoch");
            last = mutations;
            assert!(!finished || last == pool.len(), "final state never pinned");
        }
    });
}

#[test]
fn sessions_opened_during_inserts_pin_rows_and_index_at_one_epoch() {
    let data = || DatasetSpec::new(DatasetKind::DudLike, BASE, SEED).generate();
    let base_db = data().db.clone();
    let top = (0..BASE as GraphId)
        .flat_map(|g| base_db.features(g).to_vec())
        .fold(f64::MIN, f64::max);
    // Every inserted row outscores the base rows, so each insert enters
    // `L_q` and moves the quantile threshold: no two epochs share an `L_q`.
    let mut rng = SmallRng::seed_from_u64(78);
    let pool: Vec<(Graph, Vec<f64>)> = (0..6)
        .map(|i| {
            let g = mutate(&mut rng, base_db.graph(i), 2, &[0, 1], &[0]);
            (g, vec![top + 1.0 + f64::from(i); base_db.dims()])
        })
        .collect();
    let mut db = base_db.clone();
    let mut expected = vec![offline_relevant(&db)];
    for (g, f) in &pool {
        db = db.pushed(g.clone(), f.clone());
        expected.push(offline_relevant(&db));
    }
    for pair in expected.windows(2) {
        assert_ne!(pair[0], pair[1], "an insert left L_q unchanged");
    }

    let single = load_in_memory("d", data());
    open_sessions_during_inserts(
        &pool,
        &expected,
        |g, f| single.insert_graph(g, f).map(drop),
        || {
            let session = single.open_session(QUANTILE);
            (session.epoch() as usize, session.relevant().to_vec())
        },
    );
    let sharded = ShardedDataset::in_memory("d", data(), 3, SEED);
    open_sessions_during_inserts(
        &pool,
        &expected,
        |g, f| sharded.insert_graph(g, f).map(drop),
        || {
            let session = sharded.open_session(QUANTILE);
            let inserts: u64 = session.epochs().iter().sum();
            (inserts as usize, session.relevant().to_vec())
        },
    );
}

#[test]
fn generations_across_an_insert_pay_for_a_pair_once() {
    let data = DatasetSpec::new(DatasetKind::DudLike, BASE, SEED).generate();
    let theta = data.default_theta;
    let mut rng = SmallRng::seed_from_u64(79);
    let g = mutate(&mut rng, data.db.graph(0), 2, &[0, 1], &[0]);
    let features = data.db.features(0).to_vec();
    let single = load_in_memory("d", data);
    // The snapshots sessions opened at epoch e and at e + 1 are pinned to.
    let old = single.index_arc();
    single.insert_graph(g, features).expect("insert");
    let new = single.index_arc();
    assert_eq!((old.epoch(), new.epoch()), (0, 1));

    // The first pair the index build left undecided at θ: deciding it
    // through the old generation costs one engine call …
    let (a, b, verdict) = (0..BASE as GraphId)
        .flat_map(|a| (a + 1..BASE as GraphId).map(move |b| (a, b)))
        .find_map(|(a, b)| {
            let before = old.oracle().engine_calls();
            let verdict = old.oracle().within(a, b, theta);
            (old.oracle().engine_calls() == before + 1).then_some((a, b, verdict))
        })
        .expect("some pair is still undecided after the build");
    // … and nothing through the new one (or the old one again).
    let before = new.oracle().engine_calls();
    assert_eq!(new.oracle().within(a, b, theta), verdict);
    assert_eq!(old.oracle().within(b, a, theta), verdict);
    assert_eq!(
        (old.oracle().engine_calls(), new.oracle().engine_calls()),
        (before, before),
        "pair ({a}, {b}) was paid for once per generation"
    );
}
