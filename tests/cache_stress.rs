//! Concurrency stress tests for the caching layer's counters: eight
//! threads hammering a deliberately tiny [`ViewStore`] and [`AnswerCache`]
//! — with an invalidator thread wiping both mid-flight — must keep the
//! conservation identities **exact**, not approximate:
//!
//! * `lookups == hits + misses`, and equal to the number of lookup calls
//!   the threads actually made;
//! * `evictions <= insertions` (capacity pressure and replacement both
//!   count as evictions, and nothing can be evicted twice);
//! * every counter is monotone non-decreasing across any snapshot
//!   sequence, including across `invalidate_all` wipes.

use graphrep::core::{
    AnswerCache, AnswerKey, AnswerSet, CacheConfig, MaterializedView, ViewScope, ViewStore,
};
use graphrep::ged::Facts;
use graphrep::graph::GraphId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 4_000;

/// Tiny capacity so the LRU evicts constantly under the racing threads.
fn tiny() -> CacheConfig {
    CacheConfig { capacity: 8 }
}

/// SplitMix64: a per-thread deterministic op stream.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn check_monotone(label: &str, samples: &[[u64; 5]]) {
    for w in samples.windows(2) {
        for i in 0..5 {
            assert!(
                w[1][i] >= w[0][i],
                "{label}: counter {i} went backwards: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }
}

fn snapshot(c: &graphrep::core::CacheCounters) -> [u64; 5] {
    [c.lookups, c.hits, c.misses, c.insertions, c.invalidated]
}

/// The stress proper: racing lookups / records / gets / inserts against an
/// invalidator, then exact accounting once every thread has joined.
#[test]
fn racing_threads_keep_cache_counters_exactly_conserved() {
    let views = Arc::new(ViewStore::new(tiny()));
    let answers = Arc::new(AnswerCache::new(tiny()));
    let view_lookups = Arc::new(AtomicU64::new(0));
    let answer_lookups = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let invalidator = {
        let views = Arc::clone(&views);
        let answers = Arc::clone(&answers);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut wipes = 0u64;
            // Relaxed: the flag is a plain stop signal; the joins below
            // order everything that matters.
            while !stop.load(Ordering::Relaxed) {
                views.invalidate_all();
                answers.invalidate_all();
                wipes += 1;
                thread::yield_now();
            }
            wipes
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let views = Arc::clone(&views);
            let answers = Arc::clone(&answers);
            let view_lookups = Arc::clone(&view_lookups);
            let answer_lookups = Arc::clone(&answer_lookups);
            thread::spawn(move || {
                let mut view_samples: Vec<[u64; 5]> = Vec::new();
                let mut answer_samples: Vec<[u64; 5]> = Vec::new();
                for i in 0..OPS_PER_THREAD {
                    let h = mix((t as u64) << 32 | i as u64);
                    // A small key space so threads collide and evict.
                    let scope = ViewScope {
                        epoch: h % 3,
                        fingerprint: (h >> 8) % 4,
                    };
                    let theta = 1.0 + ((h >> 16) % 4) as f64;
                    let graph = ((h >> 24) % 8) as GraphId;
                    match h % 4 {
                        0 => {
                            let entries = (0..(h % 5) as GraphId)
                                .map(|c| (c, Facts::default()))
                                .collect();
                            views.record(scope, graph, MaterializedView::new(theta, entries));
                        }
                        1 => {
                            // Relaxed: op tally only; read after the joins.
                            view_lookups.fetch_add(1, Ordering::Relaxed);
                            if let Some(v) = views.lookup(scope, graph, theta) {
                                // Every recorded row is a prefix `0..m`.
                                let v: &MaterializedView = &v;
                                let m = v.entries.len() as GraphId;
                                assert!(v.entries.iter().map(|&(c, _)| c).eq(0..m));
                            }
                        }
                        2 => {
                            let key = AnswerKey {
                                epoch: h % 3,
                                theta_bits: theta.to_bits(),
                                k: (h % 5) as usize,
                                fingerprint: (h >> 8) % 4,
                            };
                            answers.insert(key, Arc::new(AnswerSet::default()));
                        }
                        _ => {
                            let key = AnswerKey {
                                epoch: h % 3,
                                theta_bits: theta.to_bits(),
                                k: (h % 5) as usize,
                                fingerprint: (h >> 8) % 4,
                            };
                            // Relaxed: op tally only; read after the joins.
                            answer_lookups.fetch_add(1, Ordering::Relaxed);
                            let _ = answers.get(&key);
                        }
                    }
                    if i % 512 == 0 {
                        view_samples.push(snapshot(&views.counters()));
                        answer_samples.push(snapshot(&answers.counters()));
                    }
                }
                (view_samples, answer_samples)
            })
        })
        .collect();

    for w in workers {
        let (vs, as_) = w.join().expect("worker panicked");
        check_monotone("view_store", &vs);
        check_monotone("answer_cache", &as_);
    }
    stop.store(true, Ordering::Relaxed);
    let wipes = invalidator.join().expect("invalidator panicked");
    assert!(wipes > 0, "the invalidator never ran");

    for (label, c, calls) in [
        (
            "view_store",
            views.counters(),
            view_lookups.load(Ordering::Relaxed),
        ),
        (
            "answer_cache",
            answers.counters(),
            answer_lookups.load(Ordering::Relaxed),
        ),
    ] {
        assert_eq!(
            c.lookups,
            c.hits + c.misses,
            "{label}: lookups != hits + misses: {c:?}"
        );
        assert_eq!(
            c.lookups, calls,
            "{label}: counted lookups != issued lookup calls: {c:?}"
        );
        assert!(
            c.evictions <= c.insertions,
            "{label}: more evictions than insertions: {c:?}"
        );
        assert!(
            c.invalidated <= c.insertions,
            "{label}: more invalidated than ever inserted: {c:?}"
        );
        assert!(
            c.entries <= tiny().capacity,
            "{label}: over capacity: {c:?}"
        );
    }
    // The racing threads must actually have exercised both paths.
    let v = views.counters();
    let a = answers.counters();
    assert!(v.insertions > 0, "no view was ever recorded: {v:?}");
    assert!(a.insertions > 0, "no answer was ever inserted: {a:?}");
    assert!(a.hits > 0, "the small key space must produce hits: {a:?}");
}

/// Counter history survives `invalidate_all`: wiping a warm cache keeps
/// every counter, bumps `invalidated`, and later traffic keeps growing the
/// same monotone series.
#[test]
fn invalidation_preserves_counter_history_under_load() {
    let answers = AnswerCache::new(tiny());
    let key = |k: usize| AnswerKey {
        epoch: 0,
        theta_bits: 2.0f64.to_bits(),
        k,
        fingerprint: 1,
    };
    for k in 0..4 {
        answers.insert(key(k), Arc::new(AnswerSet::default()));
        assert!(answers.get(&key(k)).is_some());
    }
    let warm = answers.counters();
    assert_eq!(warm.hits, 4, "{warm:?}");

    let dropped = answers.invalidate_all();
    assert_eq!(dropped, 4, "all four entries wiped");
    let wiped = answers.counters();
    assert_eq!(wiped.hits, warm.hits, "history lost: {wiped:?}");
    assert_eq!(wiped.invalidated, warm.invalidated + 4, "{wiped:?}");
    assert_eq!(wiped.entries, 0, "{wiped:?}");
    assert_eq!(wiped.memory_bytes, 0, "{wiped:?}");

    assert!(answers.get(&key(0)).is_none(), "wiped entry served");
    let after = answers.counters();
    assert_eq!(after.misses, wiped.misses + 1, "{after:?}");
    assert_eq!(after.lookups, after.hits + after.misses, "{after:?}");
}
