//! In-process layer probes: the public functions of each crate on the query
//! path, timed from outside on one fixed fixture (`small_n` DudLike graphs,
//! the dataset of `restart_churn` and `sharded_refine`). They are the same
//! in every workload's traced pass; what differs per workload are the
//! wire-side counters reported next to them.
//!
//! Every probe records a span, so the trace file shows where the traced
//! pass itself spent its time.

use crate::fixture::{self, Sizes, DATA_SEED, QUANTILE};
use crate::measure::{median, median_ms, ms, quantile, time_ms};
use crate::metrics::Values;
use crate::scratch::{copy_dir, Scratch};
use crate::trace::Trace;
use crate::wire::{self, Conn, DATASET};
use graphrep_core::{
    AnswerCache, AnswerKey, CacheConfig, MutationOutcome, NbIndex, RelevanceQuery, RunStats, Scorer,
};
use graphrep_datagen::{store, Dataset};
use graphrep_ged::{GedConfig, GedEngine};
use graphrep_serve::protocol::{encode_frame, FrameDecoder};
use graphrep_serve::{
    registry, AnswerBody, DatasetRegistry, LoadedDataset, Response, ShardedDataset,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

/// `serve` codec: `encode_frame` and `FrameDecoder` on answers the workload
/// actually received.
pub fn codec(answers: &[AnswerBody], tr: &mut Trace) -> Values {
    let responses: Vec<Response> = answers.iter().cloned().map(Response::Answer).collect();
    let frames: Vec<Vec<u8>> = responses
        .iter()
        .filter_map(|r| encode_frame(r).ok())
        .collect();
    let reps = 50;
    let calls = (responses.len() * reps).max(1) as f64;
    let encode = tr.scope("probe.serve.encode", 0, || {
        time_ms(|| {
            for _ in 0..reps {
                for r in &responses {
                    black_box(encode_frame(black_box(r)).map_or(0, |f| f.len()));
                }
            }
        })
        .1
    });
    let decode = tr.scope("probe.serve.decode", 0, || {
        time_ms(|| {
            let mut dec = FrameDecoder::new();
            for _ in 0..reps {
                for f in &frames {
                    dec.feed(f);
                    black_box(dec.next_message::<Response>().is_ok());
                }
            }
        })
        .1
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();
    vec![
        ("serve.encode_answer_ns", encode * 1e6 / calls),
        ("serve.decode_answer_ns", decode * 1e6 / calls),
        (
            "serve.answer_frame_bytes",
            bytes as f64 / frames.len().max(1) as f64,
        ),
    ]
}

fn relevant(data: &Dataset, quantile: f64) -> Vec<u32> {
    let scorer = Scorer::MeanOfDims((0..data.db.dims().max(1)).collect());
    RelevanceQuery::top_quantile(&data.db, scorer, quantile).relevant_set(&data.db)
}

/// Fixed, seed-independent graph pairs.
fn pairs(n: usize, count: usize) -> Vec<(u32, u32)> {
    (0..count)
        .map(|p| {
            let i = (p * 7919) % n;
            let j = (p * 104_729 + 1) % n;
            (i as u32, if i == j { (j + 1) % n } else { j } as u32)
        })
        .collect()
}

fn ged(data: &Dataset, theta: f64, count: usize, tr: &mut Trace) -> Values {
    let graphs = data.db.graphs();
    let pairs = pairs(graphs.len(), count);
    let calls = pairs.len() as f64;
    let engine = GedEngine::new(GedConfig::default());
    let engine_ms = tr.scope("probe.ged.engine", 0, || {
        time_ms(|| {
            for &(i, j) in &pairs {
                black_box(engine.distance(&graphs[i as usize], &graphs[j as usize]));
            }
        })
        .1
    });
    let cold = data.db.oracle(GedConfig::default());
    let within_ms = tr.scope("probe.ged.within_cold", 0, || {
        time_ms(|| {
            for &(i, j) in &pairs {
                black_box(cold.within(i, j, theta));
            }
        })
        .1
    });
    for &(i, j) in &pairs {
        cold.distance(i, j);
    }
    let reps = 50;
    let cached_ms = tr.scope("probe.ged.cached_lookup", 0, || {
        time_ms(|| {
            for _ in 0..reps {
                for &(i, j) in &pairs {
                    black_box(cold.distance(i, j));
                }
            }
        })
        .1
    });
    vec![
        ("ged.engine_us_per_call", engine_ms * 1e3 / calls),
        ("ged.within_cold_us", within_ms * 1e3 / calls),
        (
            "ged.cached_lookup_ns",
            cached_ms * 1e6 / (calls * reps as f64),
        ),
    ]
}

fn band_scan(index: &NbIndex, theta: f64, tr: &mut Trace) -> Values {
    let table = index.vantage();
    let n = table.len() as u32;
    let reps = 20;
    let mut out = Vec::new();
    let mut passed = 0usize;
    let scan_ms = tr.scope("probe.metric.band_scan", 0, || {
        time_ms(|| {
            for _ in 0..reps {
                for i in 0..n {
                    table.candidates_into(i, theta, &mut out);
                    passed += out.len();
                }
            }
        })
        .1
    });
    let rows = (reps * n as usize).max(1) as f64;
    vec![
        ("metric.band_scan_ns_per_row", scan_ms * 1e6 / rows),
        ("metric.band_pass_share", passed as f64 / (rows * n as f64)),
    ]
}

/// Offline `QuerySession::run` over the `refine_warm` schedule shape: the
/// first pass supplies the exact counters (the oracle holds only what the
/// build computed), the second the warm timings.
fn core_runs(index: &Arc<NbIndex>, data: &Dataset, tr: &mut Trace) -> Values {
    let theta0 = data.default_theta;
    let relevants: Vec<Vec<u32>> = fixture::REFINE_QUANTILES
        .iter()
        .map(|&q| relevant(data, q))
        .collect();
    let mut opens = Vec::new();
    for r in &relevants {
        for _ in 0..5 {
            let r = r.clone();
            opens.push(
                time_ms(|| black_box(Arc::clone(index).start_session_shared(r).relevant().len())).1,
            );
        }
    }
    let sessions: Vec<_> = relevants
        .iter()
        .map(|r| Arc::clone(index).start_session_shared(r.clone()))
        .collect();
    let queries = fixture::refine_queries(theta0, sessions.len(), 16);
    let mut pass = |name: &'static str| -> Vec<RunStats> {
        tr.scope(name, 0, || {
            queries
                .iter()
                .map(|q| sessions[q.session].run(q.theta, q.k).1)
                .collect()
        })
    };
    let cold = pass("probe.core.runs_cold");
    let warm = pass("probe.core.runs_warm");
    let runs = cold.len().max(1) as f64;
    let per_run = |f: fn(&RunStats) -> u64| cold.iter().map(f).sum::<u64>() as f64 / runs;
    let walls: Vec<f64> = warm.iter().map(|s| ms(s.wall)).collect();
    vec![
        ("core.session_open_ms", median(&opens)),
        ("core.run_p50_ms", quantile(&walls, 0.5)),
        ("core.run_p95_ms", quantile(&walls, 0.95)),
        ("core.nodes_expanded_per_run", per_run(|s| s.nodes_expanded)),
        ("core.verified_per_run", per_run(|s| s.verified_graphs)),
        ("core.distance_calls_per_run", per_run(|s| s.distance_calls)),
        (
            "core.ladder_hit_share",
            cold.iter().filter(|s| s.ladder_slot.is_some()).count() as f64 / runs,
        ),
    ]
}

fn answer_cache(tr: &mut Trace) -> Values {
    let cache = AnswerCache::new(CacheConfig::default());
    let key = |i: u64| AnswerKey {
        epoch: 0,
        theta_bits: (4.0 + i as f64 / 256.0).to_bits(),
        k: 10,
        fingerprint: 0x5eed,
    };
    let answer = Arc::new(graphrep_core::AnswerSet {
        ids: (0..10).collect(),
        covered: 30,
        relevant: 40,
        pi_trajectory: (1..=10).map(|i| f64::from(i) / 13.0).collect(),
    });
    for i in 0..256 {
        cache.insert(key(i), Arc::clone(&answer));
    }
    let reps = 200;
    let get_ms = tr.scope("probe.core.answer_get", 0, || {
        time_ms(|| {
            for _ in 0..reps {
                for i in 0..256 {
                    black_box(cache.get(&key(i)).is_some());
                }
            }
        })
        .1
    });
    vec![("core.answer_get_ns", get_ms * 1e6 / (256 * reps) as f64)]
}

/// Returns the values and the median `fork()+insert` time, which the
/// persistence probe subtracts from the dir-backed insert time.
fn mutations(index: &NbIndex, sizes: &Sizes, tr: &mut Trace) -> (Values, f64) {
    let pool = fixture::insert_pool(sizes.small_n, sizes.tail_inserts);
    let span = tr.begin("probe.core.mutations", 0);
    let (bytes, save_ms) = time_ms(|| index.save_bin());
    let save_ms = median(&[save_ms, median_ms(4, || drop(black_box(index.save_bin())))]);
    let oracle = index.oracle_arc();
    let load_ms = median_ms(5, || {
        black_box(NbIndex::load_bin(&bytes, Arc::clone(&oracle)).is_ok());
    });
    let rebuild_ms = median_ms(3, || {
        let mut f = index.fork();
        f.rebuild();
        black_box(f.epoch());
    });
    let mut current = index.fork();
    let (mut inserts, mut removes, mut ids) = (Vec::new(), Vec::new(), Vec::new());
    let (mut applied, mut rebuilt) = (0u32, 0u32);
    let mut tally = |outcome: MutationOutcome, took: f64, into: &mut Vec<f64>| match outcome {
        MutationOutcome::Applied => {
            applied += 1;
            into.push(took);
        }
        MutationOutcome::Rebuilt => rebuilt += 1,
    };
    for g in &pool {
        let (done, took) = time_ms(|| {
            let mut f = current.fork();
            f.insert(g.graph.clone()).ok().map(|r| (f, r))
        });
        if let Some((f, (id, outcome))) = done {
            current = f;
            ids.push(id);
            tally(outcome, took, &mut inserts);
        }
    }
    for id in ids {
        let (done, took) = time_ms(|| {
            let mut f = current.fork();
            f.remove(id).ok().map(|o| (f, o))
        });
        if let Some((f, outcome)) = done {
            current = f;
            tally(outcome, took, &mut removes);
        }
    }
    tr.end(span);
    let insert_p50 = median(&inserts);
    (
        vec![
            ("core.save_bin_ms", save_ms),
            ("core.load_bin_ms", load_ms),
            ("core.index_bin_bytes", bytes.len() as f64),
            ("core.insert_p50_ms", insert_p50),
            ("core.remove_p50_ms", median(&removes)),
            ("core.rebuild_p50_ms", rebuild_ms),
            (
                "core.rebuild_share",
                f64::from(rebuilt) / f64::from((applied + rebuilt).max(1)),
            ),
        ],
        insert_p50,
    )
}

fn shard(
    data: &Dataset,
    single: &Arc<NbIndex>,
    sizes: &Sizes,
    tr: &mut Trace,
) -> Result<Values, String> {
    let theta0 = data.default_theta;
    let (ds, build_ms) = tr.scope("probe.shard.build", 0, || {
        time_ms(|| {
            ShardedDataset::in_memory(
                "probe",
                fixture::dataset(sizes.small_n),
                sizes.shards,
                DATA_SEED,
            )
        })
    });
    let open_ms = median_ms(5, || {
        black_box(ds.open_session(QUANTILE).relevant().len());
    });
    let session = ds.open_session(QUANTILE);
    let queries = fixture::refine_queries(theta0, 1, sizes.probe_shard_queries);
    let mut pass = |name: &'static str| {
        tr.scope(name, 0, || {
            queries
                .iter()
                .map(|q| session.run(q.theta, q.k))
                .collect::<Vec<_>>()
        })
    };
    let cold = pass("probe.shard.runs_cold");
    let warm = pass("probe.shard.runs_warm");
    let reference = Arc::clone(single).start_session_shared(relevant(data, QUANTILE));
    let mut single_walls = Vec::new();
    for (q, (answer, _)) in queries.iter().zip(&cold) {
        reference.run(q.theta, q.k);
        let (want, stats) = reference.run(q.theta, q.k);
        single_walls.push(ms(stats.wall));
        if format!("{want:?}") != format!("{answer:?}") {
            return Err(format!(
                "shard probe: coordinator and single index disagree at θ={} k={}",
                q.theta, q.k
            ));
        }
    }
    let sum = |f: fn(&graphrep_shard::CoordRunStats) -> u64| {
        cold.iter().map(|(_, s)| f(s)).sum::<u64>() as f64
    };
    let (picks, pruned, touched) = (
        sum(|s| s.picks),
        sum(|s| s.pruned_shard_picks),
        sum(|s| s.touched_shard_picks),
    );
    let entries = sum(|s| s.engine_entries.iter().sum());
    let run_p50 = quantile(
        &warm.iter().map(|(_, s)| ms(s.wall)).collect::<Vec<_>>(),
        0.5,
    );
    Ok(vec![
        ("shard.build_s", build_ms / 1e3),
        ("shard.session_open_ms", open_ms),
        ("shard.run_p50_ms", run_p50),
        ("shard.prune_rate", pruned / (pruned + touched).max(1.0)),
        ("shard.touched_per_pick", touched / picks.max(1.0)),
        (
            "shard.engine_entries_per_run",
            entries / cold.len().max(1) as f64,
        ),
        (
            "shard.vs_single_ratio",
            run_p50 / quantile(&single_walls, 0.5),
        ),
    ])
}

fn mtimes(dir: &Path) -> Vec<(PathBuf, SystemTime, u64)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| {
            let meta = e.metadata().ok()?;
            Some((e.path(), meta.modified().ok()?, meta.len()))
        })
        .collect()
}

/// `datagen` store, `serve` registry open / start / accept, and what a
/// mutation costs in persistence on a dir-backed dataset.
fn persistence(
    data: &Dataset,
    index: &NbIndex,
    sizes: &Sizes,
    core_insert_ms: f64,
    tr: &mut Trace,
) -> Result<Values, String> {
    let span = tr.begin("probe.serve.persistence", 0);
    let scratch = Scratch::new("probe")?;
    let pristine = scratch.0.join("pristine");
    let work = scratch.0.join("work");
    let mut save_err = None;
    let save_ms = median_ms(3, || {
        if let Err(e) = store::save(data, &pristine) {
            save_err = Some(e.to_string());
        }
    });
    if let Some(e) = save_err {
        return Err(format!("store::save: {e}"));
    }
    let load_ms = median_ms(5, || {
        black_box(store::load(&pristine).is_ok());
    });
    std::fs::write(pristine.join("index.bin"), index.save_bin()).map_err(|e| e.to_string())?;

    let (mut opens, mut starts, mut accepts) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..8 {
        let t = Instant::now();
        let ds = LoadedDataset::open(DATASET, &pristine, false).map_err(|e| e.to_string())?;
        opens.push(ms(t.elapsed()));
        if ds.index_source() != "loaded" {
            return Err(format!("probe dataset reopened as {}", ds.index_source()));
        }
        let mut reg = DatasetRegistry::new();
        reg.insert(ds);
        let t = Instant::now();
        let handle = wire::start_server(reg)?;
        starts.push(ms(t.elapsed()));
        let (conn, accept) = Conn::connect(&handle.addr().to_string(), tr, span)?;
        accepts.push(ms(accept));
        conn.shutdown(handle, tr, span)?;
    }
    let slow = accepts.iter().filter(|&&a| a > 10.0).count();

    copy_dir(&pristine, &work)?;
    let ds = LoadedDataset::open(DATASET, &work, false).map_err(|e| e.to_string())?;
    let pool = fixture::insert_pool(sizes.small_n, sizes.tail_inserts);
    let mut dir_backed = Vec::new();
    let mut written = 0u64;
    for g in &pool {
        let before = mtimes(&work);
        let (r, took) = time_ms(|| ds.insert_graph(g.graph.clone(), g.features.clone()));
        r.map_err(|e| e.to_string())?;
        dir_backed.push(took);
        written = mtimes(&work)
            .iter()
            .filter(|(p, t, _)| !before.iter().any(|(bp, bt, _)| bp == p && bt == t))
            .map(|(_, _, len)| len)
            .sum();
    }
    tr.end(span);
    Ok(vec![
        ("datagen.store_save_ms", save_ms),
        ("datagen.store_load_ms", load_ms),
        ("serve.registry_open_ms", median(&opens)),
        ("serve.start_ms", median(&starts)),
        ("serve.accept_ms", median(&accepts)),
        (
            "serve.accept_slow_share",
            slow as f64 / accepts.len() as f64,
        ),
        // Dir-backed `insert_graph` minus `fork()+insert` of the same
        // graphs in the same order from the same index state.
        (
            "serve.persist_ms_per_mutation",
            median(&dir_backed) - core_insert_ms,
        ),
        ("serve.persist_bytes_per_mutation", written as f64),
    ])
}

/// Every in-process probe, in dependency order.
pub fn layers(sizes: &Sizes, tr: &mut Trace) -> Result<Values, String> {
    let data = fixture::dataset(sizes.small_n);
    let theta0 = data.default_theta;
    let mut v = ged(&data, theta0, sizes.probe_pairs, tr);
    let (index, build_ms) = tr.scope("probe.core.index_build", 0, || {
        time_ms(|| {
            NbIndex::build(
                data.db.oracle(GedConfig::default()),
                registry::default_index_config(&data),
            )
        })
    });
    let index = Arc::new(index);
    v.push(("core.index_build_s", build_ms / 1e3));
    v.extend(band_scan(&index, theta0, tr));
    v.extend(core_runs(&index, &data, tr));
    v.extend(answer_cache(tr));
    let (m, core_insert_ms) = mutations(&index, sizes, tr);
    v.extend(m);
    v.extend(shard(&data, &index, sizes, tr)?);
    v.extend(persistence(&data, &index, sizes, core_insert_ms, tr)?);
    Ok(v)
}
