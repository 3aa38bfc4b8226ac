//! Serving-layer throughput experiment for `graphrep-serve`.
//!
//! Part 1 — the historical sweep: an in-process TCP server over one warm
//! dataset, driven by the deterministic load harness (fixed seed, fixed
//! per-connection `(θ, k)` schedules) at 1/4/8 worker threads. Every served
//! answer must be byte-identical to an offline
//! [`graphrep_core::QuerySession::run`] replay of the same queries, at
//! every pool size.
//!
//! Part 2 — the streaming differential, which is what the reactor exists
//! for. On a server with the answer cache disabled (so the blocking
//! column measures real full-answer compute, not cache hits), and with
//! ~2000 idle connections held open against the reactor for the entire
//! comparison:
//!
//! * interleaved rounds of blocking and pipelined+streamed loads run the
//!   identical schedule, with one unrecorded warmup round first;
//! * the pooled p50 time-to-first-pick of the streamed rounds must land
//!   below the pooled blocking full-answer p50 (picks leave the server as
//!   the greedy loop commits them, not after the run finishes);
//! * every stream is still verified byte-identical to the offline replay.
//!
//! The rounds are interleaved — blocking, pipelined, blocking, … — so slow
//! drift on a shared box (frequency scaling, co-tenant load) hits both
//! columns equally instead of biasing whichever ran last.

use crate::harness::{f, timed, Ctx, Row};
use graphrep_core::CacheConfig;
use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_serve::{
    offline_reference, registry, run_load, verify_against_offline, Client, DatasetRegistry,
    LoadMode, LoadReport, LoadSpec,
};
// graphrep: allow(G007, the idle flood parks raw sockets that speak no protocol — a serve Client would defeat the experiment)
use std::net::TcpStream;

/// Worker-pool sizes to sweep: the determinism contract must hold from a
/// fully serialized pool to a contended one.
const WORKER_COUNTS: &[usize] = &[1, 4, 8];

/// Idle connections to hold open during the whole streaming differential.
const IDLE_TARGET: usize = 2000;

/// Workers for the streaming differential: sized so the pipelined in-flight
/// total (connections x depth) never queues behind a busy pool — the ttfp
/// column then measures streaming, not scheduling.
const DIFF_WORKERS: usize = 8;

/// Recorded blocking/pipelined round pairs in the differential (plus one
/// unrecorded warmup pair). Samples pool across rounds before comparing.
const DIFF_ROUNDS: usize = 3;

/// Served-vs-offline determinism and throughput across worker counts and
/// load modes (blocking, pipelined+streamed).
pub fn serve_load(ctx: &Ctx) {
    let size = ctx.base_size.clamp(80, 200);
    // `Dataset` is not `Clone`; the spec is deterministic, so regenerating
    // yields byte-identical data for the reference and every server start.
    let gen = DatasetSpec::new(DatasetKind::DudLike, size, ctx.seed);
    let data = gen.generate();
    let spec = LoadSpec {
        dataset: "bench".to_owned(),
        connections: 4,
        requests_per_conn: 10,
        thetas: vec![
            data.default_theta * 0.8,
            data.default_theta,
            data.default_theta * 1.2,
        ],
        ks: vec![3, 5],
        quantile: 0.75,
        seed: ctx.seed,
        skew: 0.0,
        mode: LoadMode::Blocking,
    };

    // Ground truth once: the offline session replays every unique (θ, k).
    let ds = registry::load_in_memory("bench", data);
    let reference = offline_reference(&ds, &spec);

    let mut rows: Vec<Row> = Vec::new();

    // Part 1: the classic sweep.
    for &workers in WORKER_COUNTS {
        let handle = start_server(&gen, workers, true);
        let addr = handle.addr().to_string();
        let (report, wall) = timed(|| run_verified(&addr, &spec, &reference, workers));
        rows.push(row(&spec, workers, 0, &report.latencies_ms, &[], wall));
        handle.shutdown();
    }

    // Part 2: the streaming differential on an uncached server (a
    // cache hit has no compute to stream past; disabling the cache makes
    // the blocking column an honest full-answer baseline). Runs must be
    // heavy enough that the compute remaining AFTER the first pick dwarfs
    // scheduler noise — on a small box, delivering a mid-run frame costs a
    // preemption of the computing worker — so the differential gets a
    // larger dataset and deeper answer sets than the throughput sweep.
    let diff_gen = DatasetSpec::new(
        DatasetKind::DudLike,
        ctx.base_size.clamp(200, 400),
        ctx.seed,
    );
    let diff_data = diff_gen.generate();
    let diff_spec = LoadSpec {
        dataset: "bench".to_owned(),
        connections: 4,
        requests_per_conn: 5,
        thetas: vec![diff_data.default_theta * 0.8, diff_data.default_theta],
        ks: vec![12, 16],
        quantile: 0.75,
        seed: ctx.seed,
        skew: 0.0,
        mode: LoadMode::Blocking,
    };
    let diff_ds = registry::load_in_memory("bench", diff_data);
    let diff_reference = offline_reference(&diff_ds, &diff_spec);
    // The identical schedule through the v2 tagged pipelined+streamed path,
    // at the baseline's in-flight concurrency (one run per connection at a
    // time): a deeper pipeline trades first-pick latency for throughput —
    // each queued run's clock starts at send — which on a small box drowns
    // the streaming signal in scheduling. Depth 1 isolates it; the deep
    // pipelines' correctness is the test suites' job.
    let pipe_spec = LoadSpec {
        mode: LoadMode::Pipelined { depth: 1 },
        ..diff_spec.clone()
    };

    let handle = start_server(&diff_gen, DIFF_WORKERS, false);
    let addr = handle.addr().to_string();

    // The flood goes up BEFORE any measurement and stays for all of them:
    // both columns see the same ~2k parked connections on the reactor.
    let idle = hold_idle_connections(&addr, IDLE_TARGET);
    let mut probe = Client::connect(&addr).expect("stats probe connect");
    let stats = probe.stats().expect("stats under flood");
    assert!(
        stats.connections_open > idle.len(),
        "server lost idle connections: {} open vs {} held",
        stats.connections_open,
        idle.len()
    );

    // Unrecorded warmup pair: first-touch effects (page-in, allocator
    // growth, branch warmup) otherwise land entirely on whichever column
    // runs first.
    run_verified(&addr, &diff_spec, &diff_reference, DIFF_WORKERS);
    run_verified(&addr, &pipe_spec, &diff_reference, DIFF_WORKERS);

    let mut blocking_lat: Vec<f64> = Vec::new();
    let mut pipe_lat: Vec<f64> = Vec::new();
    let mut ttfp: Vec<f64> = Vec::new();
    let (mut blocking_wall, mut pipe_wall) = (0.0f64, 0.0f64);
    for _ in 0..DIFF_ROUNDS {
        let (rep, wall) = timed(|| run_verified(&addr, &diff_spec, &diff_reference, DIFF_WORKERS));
        blocking_wall += wall;
        blocking_lat.extend(rep.latencies_ms);
        let (rep, wall) = timed(|| run_verified(&addr, &pipe_spec, &diff_reference, DIFF_WORKERS));
        pipe_wall += wall;
        pipe_lat.extend(rep.latencies_ms);
        ttfp.extend(rep.ttfp_ms);
    }

    // The flood must still be alive AFTER the measured rounds — sustained,
    // not merely accepted.
    let stats = probe.stats().expect("stats after flood rounds");
    assert!(
        stats.connections_open > idle.len(),
        "idle connections died during the differential: {} open vs {} held",
        stats.connections_open,
        idle.len()
    );
    drop(idle);
    handle.shutdown();

    // The point of streaming: the first representative reaches the client
    // before a blocking client would have seen any byte of the answer.
    let blocking_p50 = quantile(&blocking_lat, 0.50);
    let ttfp_p50 = quantile(&ttfp, 0.50);
    assert!(
        ttfp_p50 < blocking_p50,
        "pipelined time-to-first-pick p50 ({ttfp_p50:.3} ms over {} samples) did not beat \
         the blocking full-answer p50 ({blocking_p50:.3} ms) at {DIFF_WORKERS} workers",
        ttfp.len()
    );

    let mut blocking_row = row(
        &diff_spec,
        DIFF_WORKERS,
        idle_count(&stats),
        &blocking_lat,
        &[],
        blocking_wall,
    );
    blocking_row[4] =
        (diff_spec.connections * diff_spec.requests_per_conn * DIFF_ROUNDS).to_string();
    rows.push(blocking_row);
    let mut pipe_row = row(
        &pipe_spec,
        DIFF_WORKERS,
        idle_count(&stats),
        &pipe_lat,
        &ttfp,
        pipe_wall,
    );
    pipe_row[4] = (pipe_spec.connections * pipe_spec.requests_per_conn * DIFF_ROUNDS).to_string();
    pipe_row[10] = "true".to_owned();
    rows.push(pipe_row);

    ctx.emit(
        "serve_load",
        &[
            "mode",
            "workers",
            "connections",
            "idle_conns",
            "requests",
            "wall_s",
            "rps",
            "p50_ms",
            "p99_ms",
            "ttfp_p50_ms",
            "ttfp_beats_blocking_p50",
        ],
        &rows,
    );
}

fn start_server(gen: &DatasetSpec, workers: usize, cached: bool) -> graphrep_serve::ServerHandle {
    let cfg = graphrep_serve::ServeConfig {
        workers,
        ..graphrep_serve::ServeConfig::default()
    };
    let mut ds = registry::load_in_memory("bench", gen.generate());
    if !cached {
        ds = ds.with_cache_config(CacheConfig {
            capacity: 0,
            ..CacheConfig::default()
        });
    }
    let mut reg = DatasetRegistry::new();
    reg.insert(ds);
    graphrep_serve::start(cfg, reg)
        .unwrap_or_else(|e| panic!("server failed to start (x{workers}): {e}"))
}

/// Runs one load and enforces the determinism contract: zero errors, every
/// answer byte-identical to the offline reference, nothing dropped.
fn run_verified(
    addr: &str,
    spec: &LoadSpec,
    reference: &std::collections::HashMap<(u64, usize), graphrep_core::AnswerSet>,
    workers: usize,
) -> LoadReport {
    let report = run_load(addr, spec)
        .unwrap_or_else(|e| panic!("load failed (x{workers} {:?}): {e}", spec.mode));
    assert!(
        report.errors.is_empty(),
        "load errors (x{workers} {:?}): {:?}",
        spec.mode,
        report.errors
    );
    let verified = verify_against_offline(&report, reference)
        .unwrap_or_else(|e| panic!("determinism violation (x{workers} {:?}): {e}", spec.mode));
    assert_eq!(
        verified,
        spec.connections * spec.requests_per_conn,
        "incomplete run (x{workers} {:?})",
        spec.mode
    );
    report
}

/// Builds one CSV row from (possibly pooled) latency samples.
fn row(
    spec: &LoadSpec,
    workers: usize,
    idle_held: usize,
    latencies_ms: &[f64],
    ttfp_ms: &[f64],
    wall: f64,
) -> Row {
    let requests = spec.connections * spec.requests_per_conn;
    vec![
        mode_name(spec.mode).to_owned(),
        workers.to_string(),
        spec.connections.to_string(),
        idle_held.to_string(),
        requests.to_string(),
        f(wall),
        f(latencies_ms.len() as f64 / wall.max(f64::EPSILON)),
        f(quantile(latencies_ms, 0.50)),
        f(quantile(latencies_ms, 0.99)),
        if ttfp_ms.is_empty() {
            "0".to_owned()
        } else {
            f(quantile(ttfp_ms, 0.50))
        },
        String::new(),
    ]
}

fn mode_name(mode: LoadMode) -> &'static str {
    match mode {
        LoadMode::Blocking => "blocking",
        LoadMode::Streamed => "streamed",
        LoadMode::Pipelined { .. } => "pipelined",
    }
}

fn idle_count(stats: &graphrep_serve::StatsBody) -> usize {
    // The probe itself and any just-closed load connections make the exact
    // open count racy; the held-flood floor is what the row documents.
    stats.connections_open.saturating_sub(1).min(IDLE_TARGET)
}

/// Nearest-rank quantile over `samples` (0.0 when empty) — mirrors the
/// client harness's per-report quantile so pooled and per-run numbers are
/// comparable.
fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let idx = ((p.clamp(0.0, 1.0) * (v.len() - 1) as f64).round()) as usize;
    v[idx.min(v.len() - 1)]
}

/// Opens up to `target` idle connections (scaled down to the fd soft limit
/// actually granted — each held loopback connection costs this process two
/// fds, client end and in-process-server end).
fn hold_idle_connections(addr: &str, target: usize) -> Vec<TcpStream> {
    let granted = graphrep_serve::reactor::sys::raise_nofile_limit((2 * target + 512) as u64);
    let budget = (granted.saturating_sub(512) / 2) as usize;
    let n = target.min(budget.max(16));
    let mut held = Vec::with_capacity(n);
    for i in 0..n {
        match TcpStream::connect(addr) {
            Ok(s) => held.push(s),
            Err(e) => panic!("idle connection {i}/{n} failed: {e}"),
        }
    }
    held
}
