//! Ablations beyond the paper: how much each NB-Index ingredient buys.
//!
//! * `vp_sweep` — |V| against FPR, init cost, and query cost (extends the
//!   Sec 6.2.1 analysis empirically),
//! * `branching_sweep` — NB-Tree fan-out `b` against build and query cost,
//! * `bounds_ablation` — full NB-Index vs "VO only" (no tree bounds) vs
//!   "clusters only" (no vantage points).

use super::standard_specs;
use crate::experiments::distances::observed_fpr;
use crate::harness::{f, timed, Ctx, Row};
use graphrep_core::{baseline_greedy, NbIndex, NbIndexConfig, NbTreeConfig, NeighborhoodProvider};
use graphrep_ged::DistanceOracle;
use graphrep_graph::GraphId;
use graphrep_metric::VantageTable;

/// |V| sweep: observed FPR and end-to-end query cost.
pub fn vp_sweep(ctx: &Ctx) {
    let spec = standard_specs(ctx.base_size, ctx.seed)[0];
    let data = spec.generate();
    let relevant = data.default_query().relevant_set(&data.db);
    let theta = data.default_theta;
    let mut rows: Vec<Row> = Vec::new();
    for num_vps in [1usize, 2, 4, 8, 16, 32] {
        let oracle = ctx.oracle(&data.db);
        let index = NbIndex::build(
            oracle.clone(),
            NbIndexConfig {
                num_vps,
                ladder: data.default_ladder.clone(),
                seed: ctx.seed,
                ..NbIndexConfig::default()
            },
        );
        let fpr = observed_fpr(&oracle, index.vantage(), theta, 30, ctx.seed);
        oracle.reset_stats();
        let (_, wall) = timed(|| index.query(relevant.clone(), theta, 10));
        rows.push(vec![
            num_vps.to_string(),
            f(fpr),
            f(wall),
            oracle.engine_calls().to_string(),
            index.memory_bytes().to_string(),
        ]);
    }
    ctx.emit(
        "ablation_vp",
        &[
            "num_vps",
            "observed_fpr",
            "query_s",
            "query_calls",
            "index_bytes",
        ],
        &rows,
    );
}

/// Fan-out sweep: build cost and query cost against `b`.
pub fn branching_sweep(ctx: &Ctx) {
    let spec = standard_specs(ctx.base_size, ctx.seed)[0];
    let data = spec.generate();
    let relevant = data.default_query().relevant_set(&data.db);
    let theta = data.default_theta;
    let mut rows: Vec<Row> = Vec::new();
    for b in [4usize, 8, 16, 32, 64] {
        let oracle = ctx.oracle(&data.db);
        let index = NbIndex::build(
            oracle.clone(),
            NbIndexConfig {
                num_vps: 16,
                tree: NbTreeConfig {
                    branching: b,
                    pivot_sample: 4 * b,
                },
                ladder: data.default_ladder.clone(),
                seed: ctx.seed,
            },
        );
        let bs = index.build_stats();
        oracle.reset_stats();
        let (_, wall) = timed(|| index.query(relevant.clone(), theta, 10));
        rows.push(vec![
            b.to_string(),
            f(bs.wall.as_secs_f64()),
            bs.distance_calls.to_string(),
            f(wall),
            oracle.engine_calls().to_string(),
        ]);
    }
    ctx.emit(
        "ablation_branching",
        &[
            "branching",
            "build_s",
            "build_calls",
            "query_s",
            "query_calls",
        ],
        &rows,
    );
}

/// A provider that computes θ-neighborhoods from vantage orderings alone
/// (candidate bands + exact verification) — the "VO only" ablation arm.
struct VoProvider<'a> {
    oracle: &'a DistanceOracle,
    vt: &'a VantageTable,
    relevant_mask: graphrep_metric::Bitset,
}

impl NeighborhoodProvider for VoProvider<'_> {
    fn neighborhood(&self, g: GraphId, theta: f64) -> Vec<GraphId> {
        self.vt
            .candidates(g, theta)
            .into_iter()
            .filter(|&c| self.relevant_mask.contains(c as usize) && self.oracle.ask(g, c, theta).0)
            .collect()
    }
}

/// Full NB-Index vs VO-only vs clusters-only.
pub fn bounds_ablation(ctx: &Ctx) {
    let mut rows: Vec<Row> = Vec::new();
    for spec in standard_specs(ctx.base_size, ctx.seed) {
        let data = spec.generate();
        let relevant = data.default_query().relevant_set(&data.db);
        let theta = data.default_theta;
        let k = 10;

        // Full NB-Index.
        let oracle = ctx.oracle(&data.db);
        let index = ctx.nb_index(&data, oracle.clone());
        oracle.reset_stats();
        let (_, full_s) = timed(|| index.query(relevant.clone(), theta, k));
        let full_calls = oracle.engine_calls();

        // VO only: Alg 1 greedy with VO-accelerated neighborhoods, no tree.
        let oracle = ctx.oracle(&data.db);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(ctx.seed);
        use rand::SeedableRng;
        let vt = VantageTable::build(oracle.len(), 16, &mut rng, |a, b| oracle.distance(a, b));
        oracle.reset_stats();
        let mask = graphrep_metric::Bitset::from_indices(
            oracle.len(),
            relevant.iter().map(|&g| g as usize),
        );
        let provider = VoProvider {
            oracle: &oracle,
            vt: &vt,
            relevant_mask: mask,
        };
        let (_, vo_s) = timed(|| baseline_greedy(&provider, &relevant, theta, k));
        let vo_calls = oracle.engine_calls();

        // Clusters only: NB-Index with zero vantage points.
        let oracle = ctx.oracle(&data.db);
        let index = NbIndex::build(
            oracle.clone(),
            NbIndexConfig {
                num_vps: 0,
                ladder: data.default_ladder.clone(),
                seed: ctx.seed,
                ..NbIndexConfig::default()
            },
        );
        oracle.reset_stats();
        let (_, cl_s) = timed(|| index.query(relevant.clone(), theta, k));
        let cl_calls = oracle.engine_calls();

        rows.push(vec![
            spec.kind.name().into(),
            f(full_s),
            full_calls.to_string(),
            f(vo_s),
            vo_calls.to_string(),
            f(cl_s),
            cl_calls.to_string(),
        ]);
    }
    ctx.emit(
        "ablation_bounds",
        &[
            "dataset",
            "full_s",
            "full_calls",
            "vo_only_s",
            "vo_only_calls",
            "clusters_only_s",
            "clusters_only_calls",
        ],
        &rows,
    );
}
