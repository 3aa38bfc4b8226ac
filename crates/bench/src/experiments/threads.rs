//! Thread-scaling experiment for the parallel GED execution layer.
//!
//! Builds the NB-Index at 1, 2, 4, … rayon workers over the same dataset and
//! seed and reports the build's wall-clock speedup. A query enters no
//! parallel region, so there is no query column; one representative query is
//! still answered on every index and its answer set — ids, coverage, and the
//! full π trajectory — must be byte-identical to the single-threaded build's,
//! which is the determinism contract of the parallel build.

use crate::harness::{f, timed, Ctx, Row};
use graphrep_core::{RelevanceQuery, Scorer};
use graphrep_datagen::{DatasetKind, DatasetSpec};

/// Minimum dataset size for the scaling run: small databases finish before
/// the workers amortize their startup.
const MIN_SIZE: usize = 500;

/// Wall-clock speedup at 1..=max_threads workers, identical answers required.
pub fn thread_scaling(ctx: &Ctx) {
    let size = ctx.base_size.max(MIN_SIZE);
    let data = DatasetSpec::new(DatasetKind::DudLike, size, ctx.seed).generate();
    let scorer = Scorer::MeanOfDims((0..data.db.dims().max(1)).collect());
    let rq = RelevanceQuery::top_quantile(&data.db, scorer, 0.5);
    let relevant = rq.relevant_set(&data.db);
    let theta = data.default_theta;
    let k = 10;

    #[allow(clippy::disallowed_methods)] // one read per experiment
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t == 1 || t <= cores.max(4))
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    let mut base: Option<(f64, String)> = None;
    for &t in &counts {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .unwrap();
        let oracle = ctx.oracle(&data.db);
        let (index, build_wall) = timed(|| pool.install(|| ctx.nb_index(&data, oracle)));
        // The full answer — selection order, coverage, π trajectory — must
        // not depend on the worker count the index was built with.
        let (answer, _) = index.query(relevant.clone(), theta, k);
        let fingerprint = format!("{answer:?}");
        let (b0, fp0) = base.get_or_insert((build_wall, fingerprint.clone()));
        let identical = fingerprint == *fp0;
        assert!(identical, "answers diverged at {t} threads");
        rows.push(vec![
            t.to_string(),
            f(build_wall),
            f(*b0 / build_wall),
            identical.to_string(),
        ]);
    }
    ctx.emit(
        "threads",
        &["threads", "build_s", "build_speedup", "answers_identical"],
        &rows,
    );
}
