//! Concurrency stress over the coordinator's shard-handle locks: reader
//! threads opening sessions and running queries race mutator threads doing
//! fork-mutate-swap inserts/removes. Every answer must be internally
//! consistent with the session's pinned epoch vector, and id allocation
//! must stay dense and unique under the race. Sessions racing one cold
//! `(θ, k)` ask the engine about each cross-shard pair once between them.
//!
//! Under `--features lock-audit` the handle locks record acquisition
//! orders, so this test doubles as the runtime witness for the static lock
//! graph (DESIGN.md §12) — CI runs it with the feature on.

use graphrep_core::{NbIndex, NbIndexConfig};
use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_ged::GedConfig;
use graphrep_graph::generate::mutate;
use graphrep_shard::{CoordConfig, Coordinator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

const READERS: usize = 4;
const MUTATORS: usize = 2;
const MUTATIONS_PER_THREAD: usize = 8;

#[test]
fn concurrent_queries_and_mutations_stay_consistent() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 24, 23).generate();
    let coord = Arc::new(Coordinator::build(
        &data.db,
        GedConfig::default(),
        &CoordConfig {
            shards: 4,
            seed: 1,
            ladder: data.default_ladder.clone(),
        },
    ));
    let relevant = data.default_query().relevant_set(&data.db);
    let theta = data.default_theta;
    let stop = Arc::new(AtomicBool::new(false));
    let seen_ids = Arc::new(Mutex::new(Vec::new()));

    let mut handles = Vec::new();
    for t in 0..MUTATORS {
        let coord = Arc::clone(&coord);
        let seen = Arc::clone(&seen_ids);
        let base = data.db.graphs().to_vec();
        handles.push(thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(0xBEEF ^ t as u64);
            for i in 0..MUTATIONS_PER_THREAD {
                let src = rng.gen_range(0..base.len());
                let g = mutate(&mut rng, &base[src], 1, &[0, 1], &[0]);
                let receipt = coord.insert(g).expect("insert under race");
                assert_eq!(
                    receipt.epochs.len(),
                    coord.shard_count(),
                    "receipts always carry the full epoch vector"
                );
                seen.lock().expect("collector lock").push(receipt.id);
                if i % 3 == 2 {
                    // Remove something we inserted ourselves to keep the
                    // original dataset intact for the readers. This must
                    // succeed: it proves the concurrent insert landed in
                    // the owning shard's ascending member order (routing
                    // resolves ids by binary search).
                    let removed = coord
                        .remove(receipt.id)
                        .expect("freshly inserted id must route to its owning shard");
                    assert_eq!(removed.id, receipt.id);
                    assert_eq!(
                        removed.shard, receipt.shard,
                        "remove routes to the inserting shard"
                    );
                }
            }
        }));
    }
    for t in 0..READERS {
        let coord = Arc::clone(&coord);
        let stop = Arc::clone(&stop);
        let relevant = relevant.clone();
        handles.push(thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(0xFEED ^ t as u64);
            let mut runs = 0u32;
            while !stop.load(Ordering::Relaxed) || runs < 4 {
                let session = coord.session(relevant.clone());
                let epochs = session.epochs();
                let k = 1 + rng.gen_range(0..4);
                let (answer, stats) = session.run(theta, k);
                assert!(answer.ids.len() <= k);
                assert!(answer.covered <= answer.relevant);
                assert_eq!(
                    session.epochs(),
                    epochs,
                    "a session stays pinned to its epoch vector"
                );
                assert_eq!(stats.shard_count, coord.shard_count());
                runs += 1;
                if runs > 64 {
                    break;
                }
            }
        }));
    }
    // Let readers overlap the mutation burst, then wind down.
    for h in handles.drain(..MUTATORS) {
        h.join().expect("mutator panicked");
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("reader panicked");
    }

    let mut ids = seen_ids.lock().expect("collector lock").clone();
    ids.sort_unstable();
    let expect: Vec<u32> =
        (data.db.len() as u32..(data.db.len() + MUTATORS * MUTATIONS_PER_THREAD) as u32).collect();
    assert_eq!(ids, expect, "global ids are allocated densely and uniquely");
}

/// Foreign engine entries summed over the shards of `coord`.
fn foreign_calls(coord: &Coordinator) -> u64 {
    coord.snapshots().iter().map(|s| s.foreign_calls()).sum()
}

/// Sessions that race one cold `(θ, k)` share the coordinator's fact
/// table: every answer is the single index's, and between them they make
/// exactly the foreign engine entries one sequential cold run makes — each
/// cross-shard pair is asked of the engine once, the racers that lose its
/// rendezvous read the winner's fact. The racers overlap only where the
/// test gets two or more CPUs; on one they run one after another.
#[test]
fn racing_cold_sessions_ask_each_cross_shard_pair_once() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 60, 20140622).generate();
    let cfg = CoordConfig {
        shards: 4,
        seed: 1,
        ladder: data.default_ladder.clone(),
    };
    let relevant = data.default_query().relevant_set(&data.db);
    let (theta, k) = (data.default_theta, 8);
    let reference = NbIndex::build(
        data.db.oracle(GedConfig::default()),
        NbIndexConfig {
            ladder: data.default_ladder.clone(),
            ..NbIndexConfig::default()
        },
    );
    let want = format!("{:?}", reference.query(relevant.clone(), theta, k).0);

    let sequential = Coordinator::build(&data.db, GedConfig::default(), &cfg);
    let before = foreign_calls(&sequential);
    let (answer, _) = sequential.session(relevant.clone()).run(theta, k);
    assert_eq!(format!("{answer:?}"), want);
    let cold = foreign_calls(&sequential) - before;
    assert!(cold > 0, "the cold run asked no foreign question");

    let coord = Coordinator::build(&data.db, GedConfig::default(), &cfg);
    let before = foreign_calls(&coord);
    let start = Barrier::new(READERS);
    thread::scope(|scope| {
        let racers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    let session = coord.session(relevant.clone());
                    start.wait();
                    format!("{:?}", session.run(theta, k).0)
                })
            })
            .collect();
        for racer in racers {
            assert_eq!(racer.join().expect("racer panicked"), want);
        }
    });
    assert_eq!(
        foreign_calls(&coord) - before,
        cold,
        "{READERS} racing cold sessions against one sequential cold run"
    );
}
