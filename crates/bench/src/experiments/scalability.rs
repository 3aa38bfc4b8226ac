//! Fig 5(i)–(k) (query time vs θ), Fig 6(a) (ladder-miss penalty),
//! Fig 6(b)–(d) (vs dataset size), Fig 6(e)–(g) (vs k), Fig 6(h) (vs dims).
//!
//! Indexes are built **once** per (dataset, technique) and reused across
//! sweep points — index construction is offline in the paper's methodology.
//! Before every measured query the distance cache is cleared, so each
//! measurement reflects a fresh query's wall time and engine calls.

use super::standard_specs;
use crate::harness::{f, timed, Ctx, Row};
use graphrep_baselines::providers::{relevant_mask, CTreeProvider, MTreeProvider, MatrixProvider};
use graphrep_baselines::{div_topk, greedy_disc, CTree, DivVariant, MTree, MatrixIndex};
use graphrep_core::{baseline_greedy, NbIndex, NbIndexConfig};
use graphrep_datagen::{Dataset, DatasetSpec};
use graphrep_ged::DistanceOracle;
use graphrep_graph::GraphId;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One technique's measurement at a single configuration.
pub struct Measure {
    /// Query wall time (seconds).
    pub wall: f64,
    /// Edit-distance engine calls during the query.
    pub calls: u64,
}

/// Pre-built per-dataset benchmark state: every technique's index over its
/// own oracle.
pub struct TechBench {
    nb_oracle: Arc<DistanceOracle>,
    nb: NbIndex,
    ct_oracle: Arc<DistanceOracle>,
    ctree: CTree,
    mt_oracle: Arc<DistanceOracle>,
    mtree: MTree,
    matrix: Option<MatrixIndex>,
}

impl TechBench {
    /// Builds all indexes for `data`. The matrix comparator is opt-in — its
    /// build is quadratic in exact edit distances.
    pub fn build(ctx: &Ctx, data: &Dataset, with_matrix: bool) -> Self {
        let nb_oracle = ctx.oracle(&data.db);
        let nb = ctx.nb_index(data, nb_oracle.clone());
        let ct_oracle = ctx.oracle(&data.db);
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let ctree = CTree::build(&ct_oracle, &mut rng);
        let mt_oracle = ctx.oracle(&data.db);
        let mtree = MTree::build(&mt_oracle, &mut rng);
        let matrix = with_matrix.then(|| MatrixIndex::build(&ctx.oracle(&data.db)));
        Self {
            nb_oracle,
            nb,
            ct_oracle,
            ctree,
            mt_oracle,
            mtree,
            matrix,
        }
    }

    /// NB-Index: session initialization + search-and-update, fresh cache.
    pub fn nb(&self, relevant: &[GraphId], theta: f64, k: usize) -> Measure {
        self.nb_oracle.clear();
        let (_, wall) = timed(|| {
            let session = self.nb.start_session(relevant.to_vec());
            session.run(theta, k)
        });
        Measure {
            wall,
            calls: self.nb_oracle.engine_calls(),
        }
    }

    /// DisC truncated at k over its M-tree.
    pub fn disc(&self, relevant: &[GraphId], theta: f64, k: usize) -> Measure {
        self.mt_oracle.clear();
        let mask = relevant_mask(self.mt_oracle.len(), relevant);
        let provider = MTreeProvider {
            tree: &self.mtree,
            oracle: &self.mt_oracle,
            relevant: mask,
        };
        let (_, wall) = timed(|| greedy_disc(&provider, relevant, theta, Some(k)));
        Measure {
            wall,
            calls: self.mt_oracle.engine_calls(),
        }
    }

    /// Baseline greedy over the C-tree.
    pub fn ctree_greedy(&self, relevant: &[GraphId], theta: f64, k: usize) -> Measure {
        self.ct_oracle.clear();
        let mask = relevant_mask(self.ct_oracle.len(), relevant);
        let provider = CTreeProvider {
            tree: &self.ctree,
            oracle: &self.ct_oracle,
            relevant: mask,
        };
        let (_, wall) = timed(|| baseline_greedy(&provider, relevant, theta, k));
        Measure {
            wall,
            calls: self.ct_oracle.engine_calls(),
        }
    }

    /// DIV(θ) over the shared C-tree (diversity graph from range queries).
    pub fn div(&self, relevant: &[GraphId], theta: f64, k: usize) -> Measure {
        self.ct_oracle.clear();
        let mask = relevant_mask(self.ct_oracle.len(), relevant);
        let provider = CTreeProvider {
            tree: &self.ctree,
            oracle: &self.ct_oracle,
            relevant: mask,
        };
        let (_, wall) = timed(|| div_topk(&provider, relevant, theta, k, DivVariant::Theta));
        Measure {
            wall,
            calls: self.ct_oracle.engine_calls(),
        }
    }

    /// Baseline greedy over the precomputed matrix (zero engine calls).
    pub fn matrix(&self, relevant: &[GraphId], theta: f64, k: usize) -> Option<Measure> {
        let matrix = self.matrix.as_ref()?;
        let mask = relevant_mask(matrix.matrix().len(), relevant);
        let provider = MatrixProvider {
            matrix,
            relevant: mask,
        };
        let (_, wall) = timed(|| baseline_greedy(&provider, relevant, theta, k));
        Some(Measure { wall, calls: 0 })
    }
}

fn push_measures(rows: &mut Vec<Row>, label: Vec<String>, ms: &[Measure]) {
    let mut row = label;
    for m in ms {
        row.push(f(m.wall));
        row.push(m.calls.to_string());
    }
    rows.push(row);
}

const TECH_HEADER: &[&str] = &[
    "nb_s",
    "nb_calls",
    "disc_s",
    "disc_calls",
    "ctree_s",
    "ctree_calls",
    "div_s",
    "div_calls",
];

/// Fig 5(i)–(k): query time against θ, all techniques. The distance-matrix
/// inset runs on the DUD-like dataset only, exactly as in the paper.
pub fn fig5time(ctx: &Ctx) {
    let mut rows: Vec<Row> = Vec::new();
    for (di, spec) in standard_specs(ctx.base_size, ctx.seed)
        .into_iter()
        .enumerate()
    {
        let data = spec.generate();
        let relevant = data.default_query().relevant_set(&data.db);
        let k = 10;
        let bench = TechBench::build(ctx, &data, di == 0);
        for step in [0.5, 0.75, 1.0, 1.25, 1.5] {
            let theta = data.default_theta * step;
            let ms = vec![
                bench.nb(&relevant, theta, k),
                bench.disc(&relevant, theta, k),
                bench.ctree_greedy(&relevant, theta, k),
                bench.div(&relevant, theta, k),
            ];
            let mut row = vec![spec.kind.name().to_string(), f(theta)];
            for m in &ms {
                row.push(f(m.wall));
                row.push(m.calls.to_string());
            }
            match bench.matrix(&relevant, theta, k) {
                Some(m) => row.push(f(m.wall)),
                None => row.push(String::new()),
            }
            rows.push(row);
        }
    }
    let mut header = vec!["dataset", "theta"];
    header.extend_from_slice(TECH_HEADER);
    header.push("matrix_s");
    ctx.emit("fig5ik_time_vs_theta", &header, &rows);
}

/// Fig 5(l)/6(a): penalty as the gap between θ and the nearest indexed
/// threshold grows. One index; only the ladder is swapped per point.
pub fn fig6a(ctx: &Ctx) {
    let mut rows: Vec<Row> = Vec::new();
    for spec in standard_specs(ctx.base_size, ctx.seed).into_iter().take(2) {
        let data = spec.generate();
        let relevant = data.default_query().relevant_set(&data.db);
        let theta = data.default_theta;
        let oracle = ctx.oracle(&data.db);
        let mut index = NbIndex::build(
            oracle.clone(),
            NbIndexConfig {
                num_vps: 16,
                seed: ctx.seed,
                ladder: vec![],
                ..NbIndexConfig::default()
            },
        );
        for delta in [0.0, 1.0, 2.0, 4.0, 8.0] {
            // Only the slot θ + Δ (plus a far sentinel) is indexed.
            index.set_ladder(vec![theta + delta, theta + delta + 100.0]);
            oracle.clear();
            let (_, wall) = timed(|| {
                let session = index.start_session(relevant.clone());
                session.run(theta, 10)
            });
            rows.push(vec![
                spec.kind.name().into(),
                f(delta),
                f(wall),
                oracle.engine_calls().to_string(),
            ]);
        }
    }
    ctx.emit(
        "fig6a_ladder_gap",
        &["dataset", "delta_to_indexed_theta", "nb_s", "nb_calls"],
        &rows,
    );
}

/// Fig 6(b)–(d): query time against dataset size.
pub fn fig6scale(ctx: &Ctx) {
    let mut rows: Vec<Row> = Vec::new();
    let top = ctx.base_size;
    let sizes: Vec<usize> = [top / 4, top / 2, 3 * top / 4, top]
        .into_iter()
        .filter(|&s| s >= 50)
        .collect();
    for spec in standard_specs(top, ctx.seed) {
        let full = spec.generate();
        for &n in &sizes {
            let data = Dataset {
                db: full.db.prefix(n),
                family: full.family[..n].to_vec(),
                spec: DatasetSpec { size: n, ..spec },
                default_theta: full.default_theta,
                default_ladder: full.default_ladder.clone(),
            };
            let relevant = data.default_query().relevant_set(&data.db);
            let k = 10;
            let bench = TechBench::build(ctx, &data, false);
            let theta = data.default_theta;
            let ms = vec![
                bench.nb(&relevant, theta, k),
                bench.disc(&relevant, theta, k),
                bench.ctree_greedy(&relevant, theta, k),
                bench.div(&relevant, theta, k),
            ];
            push_measures(&mut rows, vec![spec.kind.name().into(), n.to_string()], &ms);
        }
    }
    let mut header = vec!["dataset", "db_size"];
    header.extend_from_slice(TECH_HEADER);
    ctx.emit("fig6bd_scale", &header, &rows);
}

/// Fig 6(e)–(g): query time against k (one index build per dataset).
pub fn fig6k(ctx: &Ctx) {
    let mut rows: Vec<Row> = Vec::new();
    for spec in standard_specs(ctx.base_size, ctx.seed) {
        let data = spec.generate();
        let relevant = data.default_query().relevant_set(&data.db);
        let bench = TechBench::build(ctx, &data, false);
        for k in [5usize, 10, 25, 50, 100] {
            if k > relevant.len() {
                continue;
            }
            let theta = data.default_theta;
            let ms = vec![
                bench.nb(&relevant, theta, k),
                bench.disc(&relevant, theta, k),
                bench.ctree_greedy(&relevant, theta, k),
                bench.div(&relevant, theta, k),
            ];
            push_measures(&mut rows, vec![spec.kind.name().into(), k.to_string()], &ms);
        }
    }
    let mut header = vec!["dataset", "k"];
    header.extend_from_slice(TECH_HEADER);
    ctx.emit("fig6eg_k", &header, &rows);
}

/// Fig 6(h): query time against the number of feature dimensions (DUD-like).
pub fn fig6h(ctx: &Ctx) {
    let spec = standard_specs(ctx.base_size, ctx.seed)[0];
    let data = spec.generate();
    let bench = TechBench::build(ctx, &data, false);
    let mut rows: Vec<Row> = Vec::new();
    for d in [1usize, 2, 4, 6, 8, 10] {
        let query = data.query_with_dims(d, ctx.seed + d as u64);
        let relevant = query.relevant_set(&data.db);
        let m = bench.nb(&relevant, data.default_theta, 10);
        let c = bench.ctree_greedy(&relevant, data.default_theta, 10);
        rows.push(vec![
            d.to_string(),
            relevant.len().to_string(),
            f(m.wall),
            m.calls.to_string(),
            f(c.wall),
            c.calls.to_string(),
        ]);
    }
    ctx.emit(
        "fig6h_dims",
        &[
            "dims",
            "relevant",
            "nb_s",
            "nb_calls",
            "ctree_s",
            "ctree_calls",
        ],
        &rows,
    );
}
