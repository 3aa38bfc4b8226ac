//! Fig 5(a)–(e): distance distributions, and Fig 5(f)–(h): observed vantage
//! point false-positive rates against the Eq. 11 theoretical bound.

use super::standard_specs;
use crate::harness::{f, Ctx, Row};
use graphrep_datagen::Dataset;
use graphrep_ged::DistanceOracle;
use graphrep_metric::{fpr, DistanceDistribution, VantageTable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Samples `pairs` random pairwise distances.
pub fn sample_distances(oracle: &DistanceOracle, pairs: usize, seed: u64) -> DistanceDistribution {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = oracle.len() as u32;
    let mut vals = Vec::with_capacity(pairs);
    if n >= 2 {
        for _ in 0..pairs {
            let i = rng.gen_range(0..n);
            let mut j = rng.gen_range(0..n);
            while j == i {
                j = rng.gen_range(0..n);
            }
            vals.push(oracle.distance(i, j));
        }
    }
    DistanceDistribution::new(vals)
}

/// Fig 5(a)–(e): cumulative distributions and histograms per dataset.
pub fn fig5dist(ctx: &Ctx) {
    let mut cdf_rows: Vec<Row> = Vec::new();
    let mut hist_rows: Vec<Row> = Vec::new();
    let mut stat_rows: Vec<Row> = Vec::new();
    for spec in standard_specs(ctx.base_size.min(400), ctx.seed) {
        let data = spec.generate();
        let oracle = ctx.oracle(&data.db);
        let dist = sample_distances(&oracle, 3000, ctx.seed);
        for (x, p) in dist.cdf_series(30) {
            cdf_rows.push(vec![spec.kind.name().into(), f(x), f(p)]);
        }
        for (edge, count) in dist.histogram(20) {
            hist_rows.push(vec![spec.kind.name().into(), f(edge), count.to_string()]);
        }
        stat_rows.push(vec![
            spec.kind.name().into(),
            f(dist.mean()),
            f(dist.std_dev()),
            f(dist.min()),
            f(dist.max()),
            f(dist.quantile(0.5)),
        ]);
    }
    ctx.emit("fig5ab_cdf", &["dataset", "theta", "cdf"], &cdf_rows);
    ctx.emit("fig5ce_hist", &["dataset", "bin_edge", "count"], &hist_rows);
    ctx.emit(
        "fig5_dist_stats",
        &["dataset", "mean", "std", "min", "max", "median"],
        &stat_rows,
    );
}

/// Observed FPR of the VO candidate test at one θ, over a sample of graphs.
pub fn observed_fpr(
    oracle: &DistanceOracle,
    vt: &VantageTable,
    theta: f64,
    sample: usize,
    seed: u64,
) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = oracle.len();
    let mut fp = 0usize;
    let mut negatives = 0usize;
    for _ in 0..sample {
        let g = rng.gen_range(0..n) as u32;
        let cands = vt.candidates(g, theta);
        let mut true_n = 0usize;
        let mut cand_fp = 0usize;
        for &c in &cands {
            if c == g {
                continue;
            }
            if oracle.ask(g, c, theta).0 {
                true_n += 1;
            } else {
                cand_fp += 1;
            }
        }
        fp += cand_fp;
        negatives += n - 1 - true_n;
    }
    if negatives == 0 {
        0.0
    } else {
        fp as f64 / negatives as f64
    }
}

/// Fig 5(f)–(h): observed FPR vs θ, with the Eq. 11 Gaussian upper bound.
pub fn fig5fpr(ctx: &Ctx) {
    let mut rows: Vec<Row> = Vec::new();
    let num_vps = 16;
    for spec in standard_specs(ctx.base_size.min(400), ctx.seed) {
        let data: Dataset = spec.generate();
        let oracle = ctx.oracle(&data.db);
        let dist = sample_distances(&oracle, 2000, ctx.seed);
        let (mu, sigma) = (dist.mean(), dist.std_dev().max(1e-6));
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let vt = VantageTable::build(oracle.len(), num_vps, &mut rng, |a, b| {
            oracle.distance(a, b)
        });
        let thetas: Vec<f64> = (1..=6)
            .map(|i| data.default_theta * i as f64 / 2.0)
            .collect();
        for theta in thetas {
            let obs = observed_fpr(&oracle, &vt, theta, 40, ctx.seed);
            let bound = fpr::fpr_normal_bound(theta, mu, sigma, num_vps);
            rows.push(vec![spec.kind.name().into(), f(theta), f(obs), f(bound)]);
        }
    }
    ctx.emit(
        "fig5fh_fpr",
        &["dataset", "theta", "observed_fpr", "fpr_upper_bound"],
        &rows,
    );
}
