//! Concurrency stress tests for the sharded [`DistanceOracle`] cache: many
//! threads hammering overlapping pairs must agree on every distance, run the
//! engine exactly once per unique `distance()` pair and once per unique
//! uncached `within()` `(pair, τ)` request, and keep the
//! [`OracleStats`] counters exact — every non-self request increments
//! exactly one of computations / rejections / hits / ub-accepts.
//!
//! The tiered `ask` ladder gets the same treatment: under
//! 8-thread racing its verdicts must equal the engine-only oracle's on every
//! `(pair, τ)`, and the counters must still conserve.

use graphrep::ged::{DistanceOracle, GedConfig, GedEngine, MetricHints};
use graphrep::graph::generate::random_connected;
use graphrep::graph::Graph;
use graphrep::graph::GraphId;
use std::sync::Arc;

const THREADS: usize = 8;

fn oracle(n: usize, seed: u64) -> Arc<DistanceOracle> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let graphs: Vec<Graph> = (0..n)
        .map(|_| random_connected(&mut rng, 6, 2, &[0, 1, 2], &[3, 4]))
        .collect();
    Arc::new(DistanceOracle::new(
        Arc::new(graphs),
        GedEngine::new(GedConfig::default()),
    ))
}

/// One thread's observations: the pair queried and the verdict's bit
/// pattern (`None` = rejected).
type Observations = Vec<((u32, u32), Option<u64>)>;

/// All unordered non-self pairs over `n` graphs.
fn pairs(n: u32) -> Vec<(u32, u32)> {
    (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect()
}

#[test]
fn concurrent_distance_computes_each_pair_exactly_once() {
    let o = oracle(16, 1);
    let pairs = pairs(16);
    let rounds = 3;
    let reference: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let o = Arc::clone(&o);
                let pairs = pairs.clone();
                s.spawn(move || {
                    let mut seen = Vec::new();
                    for r in 0..rounds {
                        // Different traversal order per thread and round
                        // maximizes same-pair races.
                        let mut order = pairs.clone();
                        if (t + r) % 2 == 1 {
                            order.reverse();
                        }
                        let shift = (t * 17) % order.len();
                        order.rotate_left(shift);
                        for &(i, j) in &order {
                            // Mix argument orders: (i,j) and (j,i) share a key.
                            let d = if t % 2 == 0 {
                                o.distance(i, j)
                            } else {
                                o.distance(j, i)
                            };
                            seen.push(((i, j), d));
                        }
                    }
                    seen
                })
            })
            .collect();
        let all: Vec<Vec<((u32, u32), f64)>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread observed the same value for every pair.
        let mut reference = vec![f64::NAN; pairs.len()];
        for obs in &all {
            for &((i, j), d) in obs {
                let idx = pairs.iter().position(|&p| p == (i, j)).unwrap();
                if reference[idx].is_nan() {
                    reference[idx] = d;
                }
                assert_eq!(
                    d.to_bits(),
                    reference[idx].to_bits(),
                    "pair ({i},{j}) disagreed"
                );
            }
        }
        reference
    });
    assert!(reference.iter().all(|d| !d.is_nan()));

    let s = o.stats();
    let total_requests = (THREADS * rounds * pairs.len()) as u64;
    // Exactly one engine run per unique pair, no lost counter updates.
    assert_eq!(s.distance_computations, pairs.len() as u64);
    assert_eq!(s.within_rejections, 0);
    assert_eq!(s.cache_hits, total_requests - pairs.len() as u64);
    assert_eq!(o.engine_calls(), pairs.len() as u64);
}

#[test]
fn concurrent_within_cold_pairs_run_engine_once() {
    // The racy path: every thread hammers within() on the SAME uncached
    // pairs at the same τ, in different orders. The per-(pair, τ) rendezvous
    // must let exactly one racer run the engine per pair — at quiescence the
    // engine-call counters equal the number of unique pairs, independent of
    // thread count, and every other request is a cache hit.
    // Larger graphs than the other tests and a τ above the cheap
    // label-count lower bound: each engine call must reach the expensive
    // search, so it is slow enough (≫ thread wake-up skew) that
    // barrier-released threads really overlap on uncached pairs instead of
    // trailing a warm cache. Several fresh-oracle repetitions amplify the
    // chance of catching a lost race.
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let tau = 8.0;
    let rounds = 2;
    let pairs = pairs(10);
    for seed in [7, 8, 9] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let graphs: Vec<Graph> = (0..10)
            .map(|_| random_connected(&mut rng, 9, 4, &[0, 1, 2], &[3, 4]))
            .collect();
        let o = Arc::new(DistanceOracle::new(
            Arc::new(graphs),
            GedEngine::new(GedConfig::default()),
        ));
        // All threads release from a barrier and walk the pairs in the SAME
        // order (half forward, half reverse), so every uncached pair is
        // reached by several threads at once — without the rendezvous each
        // racer would run the engine and the equality assertions below fail.
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let verdicts: Vec<Observations> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let o = Arc::clone(&o);
                    let pairs = pairs.clone();
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        let mut seen = Vec::new();
                        for r in 0..rounds {
                            let mut order = pairs.clone();
                            if (t + r) % 2 == 1 {
                                order.reverse();
                            }
                            barrier.wait();
                            for &(i, j) in &order {
                                let v = if t % 2 == 0 {
                                    o.within(i, j, tau)
                                } else {
                                    o.within(j, i, tau)
                                };
                                seen.push(((i, j), v.map(f64::to_bits)));
                            }
                        }
                        seen
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every thread observed the same verdict for every pair.
        let mut reference: Vec<Option<Option<u64>>> = vec![None; pairs.len()];
        for obs in &verdicts {
            for &((i, j), v) in obs {
                let idx = pairs.iter().position(|&p| p == (i, j)).unwrap();
                match reference[idx] {
                    None => reference[idx] = Some(v),
                    Some(r) => assert_eq!(v, r, "seed {seed} pair ({i},{j}) disagreed"),
                }
            }
        }

        let s = o.stats();
        let total_requests = (THREADS * rounds * pairs.len()) as u64;
        // Exactly one engine call per unique pair — accepted pairs count a
        // computation, rejected pairs a rejection — and nothing
        // double-counted.
        assert_eq!(
            s.distance_computations + s.within_rejections,
            pairs.len() as u64,
            "seed {seed}: engine calls must equal unique pairs \
             (computations {} + rejections {})",
            s.distance_computations,
            s.within_rejections
        );
        assert_eq!(s.cache_hits, total_requests - pairs.len() as u64);
        assert_eq!(o.engine_calls(), pairs.len() as u64);
    }
}

#[test]
fn concurrent_within_counters_sum_exactly() {
    let o = oracle(12, 2);
    let pairs = pairs(12);
    // Pre-resolve every pair so the within() calls below are all answerable
    // from the exact cache: with a warm cache the counter invariant is exact
    // even under arbitrary interleaving.
    for &(i, j) in &pairs {
        o.distance(i, j);
    }
    o.reset_stats();
    let taus = [0.5, 2.0, 8.0];
    let per_thread = pairs.len() * taus.len();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let o = Arc::clone(&o);
            let pairs = pairs.clone();
            s.spawn(move || {
                for &(i, j) in &pairs {
                    for &tau in &taus {
                        let verdict = o.within(i, j, tau);
                        // Warm cache: the verdict must equal the exact test.
                        let d = o.distance(i, j);
                        assert_eq!(
                            verdict.is_some(),
                            d <= tau + 1e-9,
                            "pair ({i},{j}) τ={tau} t={t}"
                        );
                    }
                }
            });
        }
    });
    let s = o.stats();
    // Every request hit the exact cache: within() + the re-check distance().
    assert_eq!(s.distance_computations, 0);
    assert_eq!(s.within_rejections, 0);
    assert_eq!(s.cache_hits, (THREADS * per_thread * 2) as u64);
}

#[test]
fn mixed_distance_within_requests_account_every_call() {
    // Cold-cache mixed workload: each thread works a disjoint pair slice, so
    // no two threads race on one pair and the per-request accounting is
    // exact: every non-self request increments exactly one counter.
    let o = oracle(14, 3);
    let pairs = pairs(14);
    let chunk = pairs.len().div_ceil(THREADS);
    let issued: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|slice| {
                let o = Arc::clone(&o);
                let slice = slice.to_vec();
                s.spawn(move || {
                    let mut n = 0u64;
                    for &(i, j) in &slice {
                        if (i + j) % 2 == 0 {
                            o.distance(i, j);
                        } else {
                            o.within(i, j, 2.0);
                        }
                        n += 1;
                        // A self-request must stay free of charge.
                        assert_eq!(o.distance(i, i), 0.0);
                    }
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let s = o.stats();
    assert_eq!(
        s.distance_computations + s.within_rejections + s.cache_hits,
        issued,
        "counters must sum to the number of non-self requests"
    );
}

/// Hints built from precomputed true distances with multiplicative slack:
/// sound (`0.9·d ≤ d ≤ 1.1·d` for non-negative `d`) but loose enough that
/// requests spread across the ub-accept, lb-reject, and engine tiers.
#[derive(Debug)]
struct SlackHints(Vec<Vec<f64>>);

impl MetricHints for SlackHints {
    fn lower_bound(&self, i: GraphId, j: GraphId) -> f64 {
        self.0[i as usize][j as usize] * 0.9
    }
    fn upper_bound(&self, i: GraphId, j: GraphId) -> f64 {
        self.0[i as usize][j as usize] * 1.1
    }
}

#[test]
fn tiered_verdicts_agree_with_engine_only_under_racing() {
    // Property test for the filter ladder: a tiered oracle (cheap bounds +
    // metric hints + engine) must return the SAME verdict as an engine-only
    // oracle for every (pair, τ), even while 8 threads race overlapping
    // pairs in different orders — and at quiescence its counters must still
    // conserve: hits + computations + rejections + ub_accepts == issued
    // non-self requests.
    let n = 12u32;
    let taus = [0.5, 2.0, 4.0, 8.0];
    let pairs = pairs(n);

    // Engine-only reference: tiers disabled, no hints. Pre-resolve every
    // pair so the in-thread re-checks below are warm reads.
    let reference = oracle(n as usize, 4);
    reference.set_tiers_enabled(false);
    let mut dist = vec![vec![0.0_f64; n as usize]; n as usize];
    for &(i, j) in &pairs {
        let d = reference.distance(i, j);
        dist[i as usize][j as usize] = d;
        dist[j as usize][i as usize] = d;
    }

    // Tiered oracle over the same graphs (same seed), hints installed.
    let tiered = oracle(n as usize, 4);
    tiered.set_hints(Arc::new(SlackHints(dist)));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let tiered = Arc::clone(&tiered);
            let reference = Arc::clone(&reference);
            let pairs = pairs.clone();
            s.spawn(move || {
                // Different traversal order per thread maximizes same-pair
                // races inside the verdict cells.
                let mut order = pairs.clone();
                if t % 2 == 1 {
                    order.reverse();
                }
                let shift = (t * 13) % order.len();
                order.rotate_left(shift);
                for &(i, j) in &order {
                    for &tau in &taus {
                        // Mix argument orders: (i,j) and (j,i) share a key.
                        let v = if t % 2 == 0 {
                            tiered.ask(i, j, tau).0
                        } else {
                            tiered.ask(j, i, tau).0
                        };
                        assert_eq!(
                            v,
                            reference.within(i, j, tau).is_some(),
                            "tiered verdict diverged on pair ({i},{j}) τ={tau}"
                        );
                        // Self-verdicts stay free of charge and true.
                        assert!(tiered.ask(i, i, tau).0);
                    }
                }
            });
        }
    });

    let s = tiered.stats();
    let issued = (THREADS * pairs.len() * taus.len()) as u64;
    assert_eq!(
        s.cache_hits + s.distance_computations + s.within_rejections + s.ub_accepts,
        issued,
        "tiered counters must conserve: hits {} + computations {} + \
         rejections {} + ub_accepts {}",
        s.cache_hits,
        s.distance_computations,
        s.within_rejections,
        s.ub_accepts
    );
    // The slack hints are tight enough that at least one request is settled
    // by the triangle upper bound alone; the breakdown must attribute no
    // more rejections to tiers than were counted in total.
    let tier = tiered.tier_stats();
    assert!(s.ub_accepts > 0, "expected at least one ub-accept");
    assert_eq!(tier.vantage_ub_accepts, s.ub_accepts);
    assert!(
        tier.size_rejects + tier.label_rejects + tier.degree_rejects + tier.vantage_lb_rejects
            <= s.within_rejections
    );
    #[cfg(feature = "invariant-audit")]
    tiered.audit_counter_conservation();
}

#[test]
fn tiers_never_change_cold_racing_verdicts() {
    // Same racing workload on two fresh oracles over identical graphs — one
    // tiered (without hints: size/label/degree bounds only), one engine-only
    // — both COLD, so the ladder itself races concurrent misses. Collected
    // verdicts must be identical maps.
    let taus = [1.0, 3.0, 6.0];
    let pairs = pairs(10);
    // One observed verdict: pair, τ, accept/reject.
    type Verdict = ((u32, u32), f64, bool);
    let run = |tiers: bool| -> Vec<Verdict> {
        let o = oracle(10, 5);
        o.set_tiers_enabled(tiers);
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let all: Vec<Vec<Verdict>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let o = Arc::clone(&o);
                    let pairs = pairs.clone();
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        let mut order = pairs.clone();
                        if t % 2 == 1 {
                            order.reverse();
                        }
                        barrier.wait();
                        let mut seen = Vec::new();
                        for &(i, j) in &order {
                            for &tau in &taus {
                                seen.push(((i, j), tau, o.ask(i, j, tau).0));
                            }
                        }
                        seen
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        #[cfg(feature = "invariant-audit")]
        o.audit_counter_conservation();
        let mut verdicts: Vec<_> = all.into_iter().flatten().collect();
        verdicts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        verdicts.dedup();
        verdicts
    };
    assert_eq!(
        run(true),
        run(false),
        "tiered and engine-only oracles disagreed on some (pair, τ)"
    );
}
