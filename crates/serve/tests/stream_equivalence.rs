//! The streaming differential harness: streamed picks concatenated with the
//! terminal summary must be byte-identical to the blocking `run` answer and
//! to the offline engine — per pool size, per backend (single-index and
//! sharded), pipelined or not, and across a mid-stream mutation (a session pinned to its snapshot
//! finishes on that snapshot).

use graphrep_datagen::{Dataset, DatasetKind, DatasetSpec};
use graphrep_serve::registry::load_in_memory;
use graphrep_serve::{
    offline_reference, protocol, start, Client, DatasetRegistry, FrameDecoder, LoadMode, LoadSpec,
    Response, ServeConfig, ShardedDataset, TaggedRequest, TaggedResponse,
};
use std::collections::HashMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Offline `QuerySession::run` fingerprints for an explicit query list.
fn offline_fingerprints(data: Dataset, queries: &[(f64, usize)]) -> HashMap<(u64, usize), String> {
    let ds = load_in_memory("ref", data);
    let session = ds.index_arc().start_session_shared(ds.relevant_for(0.75));
    let mut map = HashMap::new();
    for &(theta, k) in queries {
        map.insert(
            (theta.to_bits(), k),
            format!("{:?}", session.run(theta, k).0),
        );
    }
    map
}

fn dud(size: usize, seed: u64) -> DatasetSpec {
    DatasetSpec::new(DatasetKind::DudLike, size, seed)
}

fn grid(data: &Dataset) -> Vec<(f64, usize)> {
    vec![
        (data.default_theta * 0.8, 2),
        (data.default_theta * 0.8, 4),
        (data.default_theta, 2),
        (data.default_theta, 4),
        (data.default_theta * 1.2, 3),
    ]
}

fn start_single(workers: usize, name: &str, data: Dataset) -> graphrep_serve::ServerHandle {
    let mut reg = DatasetRegistry::new();
    reg.insert(load_in_memory(name, data));
    start(
        ServeConfig {
            workers,
            ..Default::default()
        },
        reg,
    )
    .expect("server start")
}

fn start_sharded(workers: usize, data: Dataset, shards: usize) -> graphrep_serve::ServerHandle {
    let mut reg = DatasetRegistry::new();
    reg.insert_sharded(ShardedDataset::in_memory("d", data, shards, 0x5eed));
    start(
        ServeConfig {
            workers,
            ..Default::default()
        },
        reg,
    )
    .expect("sharded server start")
}

/// The tentpole differential: streamed answers (pick frames + summary) are
/// byte-identical to the blocking wire answer and to offline
/// `QuerySession::run`, at 1, 4, and 8 workers.
#[test]
fn streamed_answers_match_blocking_and_offline_at_every_pool_size() {
    let gen = dud(60, 20140622);
    let data = gen.generate();
    let queries = grid(&data);
    let reference = offline_fingerprints(gen.generate(), &queries);

    for workers in [1usize, 4, 8] {
        let handle = start_single(workers, "eq", gen.generate());
        let addr = handle.addr().to_string();

        let mut streaming = Client::connect(&addr).expect("connect streaming");
        let mut blocking = Client::connect(&addr).expect("connect blocking");

        let so = streaming.open("eq", 0.75).expect("open streaming");
        let bo = blocking.open("eq", 0.75).expect("open blocking");
        for &(theta, k) in &queries {
            let (picks, streamed) = streaming
                .run_streaming_answer(so.session, theta, k)
                .unwrap_or_else(|e| panic!("x{workers} θ={theta} k={k}: {e}"));
            let blocked = blocking
                .run_answer(bo.session, theta, k)
                .expect("blocking run");
            let offline = reference
                .get(&(theta.to_bits(), k))
                .expect("offline reference");
            assert_eq!(
                &streamed.fingerprint(),
                offline,
                "x{workers} θ={theta} k={k}: streamed answer diverged from offline"
            );
            assert_eq!(
                streamed.fingerprint(),
                blocked.fingerprint(),
                "x{workers} θ={theta} k={k}: streamed vs blocking"
            );
            assert_eq!(picks.len(), streamed.ids.len());
        }
        handle.shutdown();
    }
}

/// Sharded scatter-gather streams through the same seam: streamed picks and
/// summary from a sharded backend are byte-identical to the single-index
/// blocking answer, per pool size.
#[test]
fn sharded_streamed_answers_match_single_index() {
    let gen = dud(36, 29);
    let data = gen.generate();
    let queries = grid(&data);

    let single = start_single(2, "d", gen.generate());
    let mut sc = Client::connect(&single.addr().to_string()).expect("connect single");
    let so = sc.open("d", 0.75).expect("open single");
    let mut want = Vec::new();
    for &(theta, k) in &queries {
        want.push(
            sc.run_answer(so.session, theta, k)
                .expect("single run")
                .fingerprint(),
        );
    }
    single.shutdown();

    for workers in [1usize, 4, 8] {
        let handle = start_sharded(workers, gen.generate(), 3);
        let mut c = Client::connect(&handle.addr().to_string()).expect("connect sharded");
        let o = c.open("d", 0.75).expect("open sharded");
        for (i, &(theta, k)) in queries.iter().enumerate() {
            let (picks, body) = c
                .run_streaming_answer(o.session, theta, k)
                .unwrap_or_else(|e| panic!("sharded x{workers} θ={theta} k={k}: {e}"));
            assert_eq!(
                body.fingerprint(),
                want[i],
                "sharded x{workers} θ={theta} k={k}"
            );
            assert!(!picks.is_empty());
            assert_eq!(body.shard_count, 3);
        }
        handle.shutdown();
    }
}

/// Pipelined tagged streams on one connection: many in-flight `RunStream`s
/// complete out of order, yet every stream is internally consistent and
/// every answer matches the offline engine.
#[test]
fn pipelined_streams_are_answered_correctly_out_of_order() {
    let gen = dud(60, 20140622);
    let data = gen.generate();
    let queries = grid(&data);
    let reference = offline_fingerprints(gen.generate(), &queries);

    let handle = start_single(4, "pl", gen.generate());
    let mut c = Client::connect(&handle.addr().to_string()).expect("connect");
    let o = c.open("pl", 0.75).expect("open");

    // Two full rounds of the grid in flight at once on a single connection.
    let mut batch: Vec<(f64, usize)> = queries.clone();
    batch.extend(queries.iter().copied());
    let runs = c.run_pipelined(o.session, &batch, true).expect("pipeline");
    assert_eq!(runs.len(), batch.len());
    for (i, run) in runs.iter().enumerate() {
        let (theta, k) = batch[i];
        let body = match &run.terminal {
            Response::AnswerEnd(b) => b,
            other => panic!("slot {i} (θ={theta} k={k}): {other:?}"),
        };
        graphrep_serve::verify_stream_consistency(&run.picks, body)
            .unwrap_or_else(|e| panic!("slot {i}: {e}"));
        let offline = reference
            .get(&(theta.to_bits(), k))
            .expect("offline reference");
        assert_eq!(&body.fingerprint(), offline, "slot {i} θ={theta} k={k}");
    }

    // The load harness drives the same path end to end (verifies stream
    // consistency per answer and records time-to-first-pick).
    let load_spec = LoadSpec {
        dataset: "pl".into(),
        connections: 2,
        requests_per_conn: 6,
        thetas: vec![data.default_theta * 0.8, data.default_theta],
        ks: vec![2, 4],
        quantile: 0.75,
        seed: 1,
        skew: 0.0,
        mode: LoadMode::Pipelined { depth: 3 },
    };
    let load_reference = offline_reference(&load_in_memory("pl", gen.generate()), &load_spec);
    let report = graphrep_serve::run_load(&handle.addr().to_string(), &load_spec).expect("load");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.completed(), 12);
    assert_eq!(report.ttfp_ms.len(), 12, "every streamed run records ttfp");
    let verified =
        graphrep_serve::verify_against_offline(&report, &load_reference).expect("offline verify");
    assert_eq!(verified, 12);
    handle.shutdown();
}

/// A mutation landing mid-stream must not bend an in-flight (or even an
/// already-open) session: sessions pin their snapshot at open, so the
/// stream finishes byte-identically to the pre-mutation offline answer,
/// while the mutation itself is acknowledged with a moved epoch.
#[test]
fn mid_stream_mutation_leaves_pinned_session_on_its_snapshot() {
    let gen = dud(60, 20140622);
    let data = gen.generate();
    let dims = data.db.dims();

    // Pre-mutation ground truth on a query that takes several picks —
    // a one-pick run has no meaningful "mid-stream".
    let ds = load_in_memory("mut", gen.generate());
    let session = ds.index_arc().start_session_shared(ds.relevant_for(0.75));
    let (theta, k) = grid(&data)
        .into_iter()
        .find(|&(t, k)| session.run(t, k).0.ids.len() >= 2)
        .expect("no grid query streams multiple picks");
    let offline = format!("{:?}", session.run(theta, k).0);

    let handle = start_single(2, "mut", gen.generate());
    let addr = handle.addr().to_string();

    // Raw streaming socket so the test controls frame-by-frame reads.
    let mut stream = TcpStream::connect(&addr).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    let mut dec = FrameDecoder::new();
    protocol::write_frame(
        &mut stream,
        &TaggedRequest {
            id: 1,
            req: protocol::Request::Open(protocol::OpenBody {
                dataset: "mut".into(),
                quantile: 0.75,
            }),
        },
    )
    .expect("open frame");
    let session = match read_response(&mut stream, &mut dec, 1) {
        Response::Opened(o) => o.session,
        other => panic!("expected Opened, got {other:?}"),
    };
    protocol::write_frame(
        &mut stream,
        &TaggedRequest {
            id: 2,
            req: protocol::Request::RunStream(protocol::RunBody {
                session,
                theta,
                k,
                deadline_ms: None,
            }),
        },
    )
    .expect("run_stream frame");

    // Consume exactly one pick, then mutate from a second connection
    // while the stream is still open.
    let first = read_response(&mut stream, &mut dec, 2);
    assert!(
        matches!(first, Response::Pick(_)),
        "expected a first pick, got {first:?}"
    );
    let mut mutator = Client::connect(&addr).expect("connect mutator");
    let receipt = mutator
        .insert(
            "mut",
            vec![0, 1, 1],
            vec![(0, 1, 0), (1, 2, 1)],
            vec![0.5; dims],
        )
        .expect("mid-stream insert");
    assert!(receipt.epoch >= 1, "insert must move the epoch");

    // Drain the rest of the stream: it must finish on the snapshot the
    // session pinned at open, untouched by the insert.
    let mut picks = vec![first];
    let body = loop {
        match read_response(&mut stream, &mut dec, 2) {
            Response::Pick(p) => picks.push(Response::Pick(p)),
            Response::AnswerEnd(b) => break b,
            other => panic!("mid-stream: {other:?}"),
        }
    };
    assert_eq!(
        body.fingerprint(),
        offline,
        "mutation bent a pinned-epoch stream"
    );
    assert!(picks.len() >= 2, "the run must stream multiple picks");
    handle.shutdown();
}

/// Blocks until one response frame arrives (10 s cap) and checks it
/// answers request `id`. `dec` keeps any bytes a read took past this frame
/// for the next call.
fn read_response(stream: &mut TcpStream, dec: &mut FrameDecoder, id: u64) -> Response {
    match dec
        .read_message::<TaggedResponse>(stream, Instant::now() + Duration::from_secs(10))
        .expect("frame")
    {
        Some(t) => {
            assert_eq!(t.id, id, "frame for another request: {t:?}");
            t.resp
        }
        None => panic!("server closed mid-stream"),
    }
}
