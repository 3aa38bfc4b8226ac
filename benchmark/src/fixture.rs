//! Inputs: datasets, insert pools and the fixed stratified schedules.
//!
//! Everything here is a pure function of the sizes; `--seed` only permutes
//! the order in which a schedule is replayed. A randomly *drawn* mix made
//! `qps` swing ±20 % between identical rounds (see README, noise findings),
//! so the multiset of work is the same for every seed and every round.

use graphrep_datagen::{Dataset, DatasetKind, DatasetSpec};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Seed of every generated dataset (the paper's conference date). The
/// benchmark's `--seed` never reaches the generator.
pub const DATA_SEED: u64 = 20140622;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 20140622;
/// Size of the generation whose tail (graphs `n..`) is the insert pool: the
/// generator is prefix-stable, so the pool comes from the same families.
pub const POOL_GENERATION: usize = 400;
/// Relevance quantile of every single-session workload and probe.
pub const QUANTILE: f64 = 0.75;
/// `k` of the first-answer probe query.
pub const FIRST_K: usize = 10;

/// Problem sizes. `FULL` is what `BENCHMARK.json` measures; `TINY` keeps the
/// shapes and shrinks the counts for the determinism self-test.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Graphs behind `refine_warm` and `dashboard_hot`.
    pub big_n: usize,
    /// Graphs behind `restart_churn`, `sharded_refine` and the layer probes.
    pub small_n: usize,
    /// `refine_warm`: runs per session per round (6 sessions).
    pub refine_per_session: usize,
    /// `dashboard_hot`: distinct `(θ, k)` keys and requests per round.
    pub dash_keys: usize,
    /// See `dash_keys`.
    pub dash_ops: usize,
    /// `restart_churn`: restart epochs per round.
    pub churn_epochs: usize,
    /// `sharded_refine`: shard count and unique queries per round.
    pub shards: usize,
    /// See `shards`.
    pub shard_unique: usize,
    /// The three long-lived-server workloads: open-session + first-answer
    /// probes after each round, and inserts (then as many removes) in the
    /// tail each set-up fixture runs before it is shut down.
    pub first_per_round: usize,
    /// See `first_per_round`.
    pub tail_inserts: usize,
    /// Layer probes: fixed graph pairs for the `ged` probes.
    pub probe_pairs: usize,
    /// Layer probes: queries of the offline sharded pass.
    pub probe_shard_queries: usize,
}

impl Sizes {
    /// The measured configuration.
    pub const FULL: Sizes = Sizes {
        big_n: 240,
        small_n: 160,
        refine_per_session: 32,
        dash_keys: 256,
        dash_ops: 5_000,
        churn_epochs: 4,
        shards: 4,
        shard_unique: 12,
        first_per_round: 2,
        tail_inserts: 4,
        probe_pairs: 2_000,
        probe_shard_queries: 8,
    };
    /// The self-test configuration (seconds, not minutes, in a debug-ish
    /// test profile).
    pub const TINY: Sizes = Sizes {
        big_n: 48,
        small_n: 40,
        refine_per_session: 4,
        dash_keys: 12,
        dash_ops: 120,
        churn_epochs: 4,
        shards: 4,
        shard_unique: 4,
        first_per_round: 1,
        tail_inserts: 3,
        probe_pairs: 60,
        probe_shard_queries: 2,
    };
}

/// The DudLike dataset of `n` graphs.
pub fn dataset(n: usize) -> Dataset {
    DatasetSpec::new(DatasetKind::DudLike, n, DATA_SEED).generate()
}

/// A graph in wire form, ready for `Client::insert`.
#[derive(Debug, Clone)]
pub struct PoolGraph {
    /// The graph itself, for in-process inserts.
    pub graph: graphrep_graph::Graph,
    /// Node labels (index = node id).
    pub nodes: Vec<u32>,
    /// `(u, v, label)` triples.
    pub edges: Vec<(u16, u16, u32)>,
    /// Feature vector.
    pub features: Vec<f64>,
}

/// Graphs `n..n + count` of the [`POOL_GENERATION`]-graph generation.
pub fn insert_pool(n: usize, count: usize) -> Vec<PoolGraph> {
    assert!(n + count <= POOL_GENERATION, "insert pool exhausted");
    let full = dataset(POOL_GENERATION);
    (n..n + count)
        .map(|i| {
            let g = &full.db.graphs()[i];
            PoolGraph {
                graph: g.clone(),
                nodes: g.node_labels().to_vec(),
                edges: g.edges().iter().map(|e| (e.u, e.v, e.label)).collect(),
                features: full.db.features(i as u32).to_vec(),
            }
        })
        .collect()
}

/// Seeded Fisher–Yates permutation; `salt` decorrelates the schedules of one
/// run from each other.
pub fn permute<T>(items: &mut [T], seed: u64, salt: u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    items.shuffle(&mut rng);
}

/// One unique query of a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Index into the workload's session list.
    pub session: usize,
    /// Distance threshold.
    pub theta: f64,
    /// Answer size.
    pub k: usize,
}

/// Session quantiles of `refine_warm` and of the offline `core` probe.
pub const REFINE_QUANTILES: [f64; 6] = [0.5, 0.58, 0.66, 0.74, 0.82, 0.9];

/// The interactive-refinement shape: `sessions × per_session` queries, θ
/// spread continuously over `[0.5, 1.6]·theta0` (every θ distinct, so no two
/// queries share a cache key), k cycling through `1..=20`.
pub fn refine_queries(theta0: f64, sessions: usize, per_session: usize) -> Vec<Query> {
    let total = (sessions * per_session) as f64;
    let mut out = Vec::with_capacity(sessions * per_session);
    for j in 0..per_session {
        for s in 0..sessions {
            let u = (j * sessions + s) as f64 / total;
            out.push(Query {
                session: s,
                theta: theta0 * (0.5 + 1.1 * u),
                k: 1 + (j * 7 + s * 3) % 20,
            });
        }
    }
    out
}

/// Zipf(`exponent`) request counts over `keys` keys summing to exactly
/// `ops`: the expected counts rounded down, the remainder handed to the
/// most popular keys. Returned as one key index per request, unshuffled.
pub fn zipf_schedule(keys: usize, ops: usize, exponent: f64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=keys).map(|r| (r as f64).powf(-exponent)).collect();
    let norm: f64 = weights.iter().sum();
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|w| ((w / norm * ops as f64).floor() as usize).max(1))
        .collect();
    let mut assigned: usize = counts.iter().sum();
    let mut i = 0;
    while assigned < ops {
        counts[i % keys] += 1;
        assigned += 1;
        i += 1;
    }
    while assigned > ops {
        let j = counts
            .iter()
            .rposition(|&c| c > 1)
            .expect("more keys than requests");
        counts[j] -= 1;
        assigned -= 1;
    }
    counts
        .iter()
        .enumerate()
        .flat_map(|(key, &c)| std::iter::repeat_n(key, c))
        .collect()
}

/// FNV-1a over a schedule's debug rendering: two runs replayed the same
/// schedule iff their digests agree.
pub fn digest(parts: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for b in p.bytes().chain(std::iter::once(0xff)) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
