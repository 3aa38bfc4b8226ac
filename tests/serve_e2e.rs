//! End-to-end tests for the `graphrep-serve` subsystem over real TCP
//! sockets: determinism against the offline engine at several pool sizes,
//! one session seam behind both engines (single index and scatter-gather),
//! explicit admission-control rejections, deadline aborts that leave the
//! session usable, idle-session expiry, and graceful drain-then-exit
//! shutdown.

use graphrep::datagen::{DatasetKind, DatasetSpec};
use graphrep_serve::{
    codes, offline_reference, registry, run_load, verify_against_offline, Client, DatasetRegistry,
    LoadMode, LoadSpec, Response, ServeConfig, ShardedDataset,
};
use std::time::Duration;

/// Dataset generator shared by the tests; `Dataset` is not `Clone`, but the
/// generator is deterministic, so every `generate()` yields identical data.
fn dud(size: usize) -> DatasetSpec {
    DatasetSpec::new(DatasetKind::DudLike, size, 20140622)
}

/// The tentpole acceptance criterion: answers served over TCP are
/// byte-identical to offline `QuerySession::run`, at 1, 4, and 8 server
/// worker threads, and identical across the pool sizes themselves.
#[test]
fn server_answers_match_offline_at_every_pool_size() {
    let gen = dud(60);
    let data = gen.generate();
    let spec = LoadSpec {
        dataset: "e2e".into(),
        connections: 3,
        requests_per_conn: 5,
        thetas: vec![
            data.default_theta * 0.8,
            data.default_theta,
            data.default_theta * 1.2,
        ],
        ks: vec![2, 4],
        quantile: 0.75,
        seed: 7,
        skew: 0.0,
        mode: LoadMode::Blocking,
    };
    let reference = offline_reference(&registry::load_in_memory("e2e", data), &spec);

    let mut baseline: Option<Vec<String>> = None;
    for workers in [1usize, 4, 8] {
        let cfg = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        let handle =
            graphrep_serve::start_in_memory(cfg, "e2e", gen.generate()).expect("server start");
        let report = run_load(&handle.addr().to_string(), &spec).expect("load run");
        handle.shutdown();

        assert!(
            report.errors.is_empty(),
            "errors at {workers} workers: {:?}",
            report.errors
        );
        let verified = verify_against_offline(&report, &reference)
            .unwrap_or_else(|e| panic!("at {workers} workers: {e}"));
        assert_eq!(verified, spec.connections * spec.requests_per_conn);

        let fps: Vec<String> = report
            .answers
            .iter()
            .map(|a| a.body.fingerprint())
            .collect();
        match &baseline {
            None => baseline = Some(fps),
            Some(base) => assert_eq!(&fps, base, "answers diverged at {workers} workers"),
        }
    }
}

/// The same dataset served twice — by one NB-Index and by a 3-shard
/// coordinator — answers the same `(quantile, θ, k)` grid byte-identically
/// through `run` and `run_stream`; what differs is only what each engine
/// reports about *how*: the single index owns an answer cache (a repeated
/// blocking run is a hit), the coordinator reports its shard work.
#[test]
fn single_and_sharded_datasets_answer_identically_through_one_seam() {
    let gen = dud(48);
    let theta = gen.generate().default_theta;
    let mut reg = DatasetRegistry::new();
    reg.insert(registry::load_in_memory("single", gen.generate()));
    reg.insert_sharded(ShardedDataset::in_memory(
        "sharded",
        gen.generate(),
        3,
        20140622,
    ));
    let handle = graphrep_serve::start(ServeConfig::default(), reg).expect("start");
    let mut c = Client::connect(&handle.addr().to_string()).expect("connect");

    for quantile in [0.5, 0.75] {
        let single = c.open("single", quantile).expect("open single");
        let sharded = c.open("sharded", quantile).expect("open sharded");
        assert_eq!(single.relevant, sharded.relevant, "quantile {quantile}");
        for theta in [theta * 0.8, theta, theta * 1.3] {
            for k in [1usize, 4] {
                let at = format!("quantile {quantile}, θ = {theta}, k = {k}");
                // `run_streaming_answer` checks the picks reconstruct the
                // terminal answer; streamed first, so the blocking run below
                // also shows a streamed run populated no cache.
                let (_, streamed_single) = c
                    .run_streaming_answer(single.session, theta, k)
                    .expect("stream single");
                let (_, streamed_sharded) = c
                    .run_streaming_answer(sharded.session, theta, k)
                    .expect("stream sharded");
                let first = c.run_answer(single.session, theta, k).expect("run single");
                let again = c
                    .run_answer(single.session, theta, k)
                    .expect("rerun single");
                let scattered = c
                    .run_answer(sharded.session, theta, k)
                    .expect("run sharded");
                let rescattered = c
                    .run_answer(sharded.session, theta, k)
                    .expect("rerun sharded");

                let want = first.fingerprint();
                for body in [&streamed_single, &streamed_sharded, &again, &scattered] {
                    assert_eq!(body.fingerprint(), want, "{at}");
                }
                assert!(!streamed_single.cached && !first.cached, "{at}");
                assert!(again.cached, "{at}: a repeated blocking run must hit");
                assert!(!scattered.cached && !rescattered.cached, "{at}");

                for body in [&streamed_single, &first, &again] {
                    let shard_work = body.picks + body.shards_pruned + body.shards_touched;
                    assert_eq!((body.shard_count, shard_work), (0, 0), "{at}");
                }
                for body in [&streamed_sharded, &scattered, &rescattered] {
                    assert_eq!(body.shard_count, 3, "{at}");
                    assert_eq!(body.picks as usize, body.ids.len(), "{at}");
                    assert_eq!(
                        body.shards_pruned + body.shards_touched,
                        3 * body.picks,
                        "{at}"
                    );
                }
            }
        }
    }

    let stats = c.stats().expect("stats");
    let enabled: Vec<(&str, bool)> = stats
        .datasets
        .iter()
        .map(|d| (d.name.as_str(), d.cache_enabled))
        .collect();
    assert_eq!(enabled, [("sharded", false), ("single", true)]);
    handle.shutdown();
}

/// Driving the queue past the admission limit yields an explicit
/// `overloaded` rejection — not a hang, not a dropped connection — and the
/// stats counters account for every request.
#[test]
fn saturated_queue_rejects_with_overloaded_and_counts_it() {
    let cfg = ServeConfig {
        workers: 1,
        max_queue: 1,
        ..ServeConfig::default()
    };
    let handle = graphrep_serve::start_in_memory(cfg, "ovl", dud(30).generate()).expect("start");
    let addr = handle.addr().to_string();

    // First ping occupies the single worker for 700 ms...
    let in_flight = {
        let addr = addr.clone();
        std::thread::spawn(move || Client::connect(&addr).expect("conn 1").ping(700))
    };
    std::thread::sleep(Duration::from_millis(150));
    // ...the second fills the one queue slot...
    let queued = {
        let addr = addr.clone();
        std::thread::spawn(move || Client::connect(&addr).expect("conn 2").ping(700))
    };
    std::thread::sleep(Duration::from_millis(150));
    // ...so the third must be rejected immediately.
    let mut probe = Client::connect(&addr).expect("conn 3");
    let resp = probe.ping(0).expect("transport");
    assert_eq!(resp.error_code(), Some(codes::OVERLOADED), "{resp:?}");

    // The admitted requests still complete normally.
    assert!(matches!(
        in_flight.join().expect("join 1"),
        Ok(Response::Pong)
    ));
    assert!(matches!(queued.join().expect("join 2"), Ok(Response::Pong)));

    let stats = probe.stats().expect("stats");
    let ping = stats
        .endpoints
        .iter()
        .find(|e| e.endpoint == "ping")
        .expect("ping endpoint row");
    assert_eq!(ping.requests, 3, "{ping:?}");
    assert_eq!(ping.ok, 2, "{ping:?}");
    assert_eq!(ping.overloaded, 1, "{ping:?}");
    handle.shutdown();
}

/// A ~0 deadline aborts the greedy search with `deadline_exceeded`, the
/// session survives, and its next run still matches the offline engine.
#[test]
fn zero_deadline_aborts_but_session_survives() {
    let gen = dud(60);
    let data = gen.generate();
    let theta = data.default_theta;

    let ds = registry::load_in_memory("dl", data);
    let offline = {
        let session = ds.index_arc().start_session_shared(ds.relevant_for(0.75));
        format!("{:?}", session.run(theta, 3).0)
    };

    let handle = graphrep_serve::start_in_memory(ServeConfig::default(), "dl", gen.generate())
        .expect("start");
    let mut c = Client::connect(&handle.addr().to_string()).expect("connect");
    let opened = c.open("dl", 0.75).expect("open");

    let resp = c.run(opened.session, theta, 3, Some(0)).expect("transport");
    assert_eq!(
        resp.error_code(),
        Some(codes::DEADLINE_EXCEEDED),
        "{resp:?}"
    );

    let body = c.run_answer(opened.session, theta, 3).expect("second run");
    assert_eq!(
        body.fingerprint(),
        offline,
        "session corrupted by the abort"
    );

    let stats = c.stats().expect("stats");
    let run = stats
        .endpoints
        .iter()
        .find(|e| e.endpoint == "run")
        .expect("run endpoint row");
    assert_eq!(run.deadline_exceeded, 1, "{run:?}");
    assert_eq!(run.ok, 1, "{run:?}");
    handle.shutdown();
}

/// With a zero idle TTL every session expires before its first run; the
/// server reports `not_found` and counts the expiry.
#[test]
fn idle_sessions_expire_and_report_not_found() {
    let cfg = ServeConfig {
        idle_session_ttl: Duration::ZERO,
        ..ServeConfig::default()
    };
    let handle = graphrep_serve::start_in_memory(cfg, "idle", dud(30).generate()).expect("start");
    let mut c = Client::connect(&handle.addr().to_string()).expect("connect");
    let opened = c.open("idle", 0.75).expect("open");

    let resp = c.run(opened.session, 2.0, 2, None).expect("transport");
    assert_eq!(resp.error_code(), Some(codes::NOT_FOUND), "{resp:?}");

    let stats = c.stats().expect("stats");
    assert_eq!(stats.sessions_open, 0, "{stats:?}");
    assert!(stats.sessions_expired >= 1, "{stats:?}");
    handle.shutdown();
}

/// `shutdown` over the wire acks, drains in-flight work, and joins every
/// thread well inside the timeout; the listener is gone afterwards.
#[test]
fn shutdown_request_drains_and_joins_within_timeout() {
    let gen = dud(40);
    let theta = gen.generate().default_theta;
    let handle = graphrep_serve::start_in_memory(ServeConfig::default(), "sd", gen.generate())
        .expect("start");
    let addr = handle.addr().to_string();

    let mut c = Client::connect(&addr).expect("connect");
    let opened = c.open("sd", 0.75).expect("open");
    c.run_answer(opened.session, theta, 2).expect("warm run");
    c.shutdown().expect("shutdown ack");

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.wait();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("server failed to drain and join within 10 s");
    assert!(
        Client::connect(&addr).is_err(),
        "listener still accepting after shutdown"
    );
}
