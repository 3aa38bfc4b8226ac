//! Connection fault injection against the reactor: peers that vanish
//! mid-stream, half-open sockets, peers that stall mid-frame, storms of
//! misbehaving connections, and a crowd of parked ones beside a load.
//! The invariants, asserted through the `stats` endpoint before and after:
//! every dispatched request is accounted for exactly once (requests ==
//! ok + overloaded + deadline_exceeded + errors), the connection gauge
//! returns to baseline (no leaked slots), the worker queue drains to zero
//! (no leaked workers), and the server keeps serving clean clients
//! throughout.

use graphrep_datagen::{Dataset, DatasetKind, DatasetSpec};
use graphrep_serve::registry::load_in_memory;
use graphrep_serve::{
    offline_reference, protocol, run_load, start, verify_against_offline, Client, DatasetRegistry,
    FrameDecoder, LoadMode, LoadSpec, Response, ServeConfig, StatsBody, TaggedRequest,
    TaggedResponse,
};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

fn server(workers: usize) -> graphrep_serve::ServerHandle {
    server_with_frame_stall(workers, ServeConfig::default().frame_stall)
}

fn dataset() -> Dataset {
    DatasetSpec::new(DatasetKind::DudLike, 60, 20140622).generate()
}

fn server_with_frame_stall(workers: usize, frame_stall: Duration) -> graphrep_serve::ServerHandle {
    let mut reg = DatasetRegistry::new();
    reg.insert(load_in_memory("f", dataset()));
    start(
        ServeConfig {
            workers,
            frame_stall,
            ..Default::default()
        },
        reg,
    )
    .expect("server start")
}

/// Every dispatched request ended in exactly one of the four outcome
/// buckets — a cancelled or discarded run still gets its terminal observed.
fn assert_conserved(stats: &StatsBody) {
    for ep in &stats.endpoints {
        assert_eq!(
            ep.requests,
            ep.ok + ep.overloaded + ep.deadline_exceeded + ep.errors,
            "endpoint `{}` leaked a request: {ep:?}",
            ep.endpoint
        );
    }
}

fn endpoint<'a>(stats: &'a StatsBody, name: &str) -> &'a graphrep_serve::protocol::EndpointStats {
    stats
        .endpoints
        .iter()
        .find(|e| e.endpoint == name)
        .unwrap_or_else(|| panic!("no `{name}` endpoint in stats"))
}

/// Polls `stats` until `pred` holds or ~10 s pass; returns the last snapshot.
fn await_stats(observer: &mut Client, pred: impl Fn(&StatsBody) -> bool) -> StatsBody {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = observer.stats().expect("stats");
        if pred(&s) || Instant::now() > deadline {
            return s;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn tagged(id: u64, req: protocol::Request) -> Vec<u8> {
    protocol::encode_frame(&TaggedRequest { id, req }).expect("encode")
}

/// A bare socket, ready for tagged frames, and the decoder that reads it
/// (mirrors the torture suite's helper).
fn raw(addr: &str) -> (TcpStream, FrameDecoder) {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    (s, FrameDecoder::new())
}

/// Blocks until one tagged frame arrives (10 s cap).
fn read_tagged(stream: &mut TcpStream, dec: &mut FrameDecoder) -> TaggedResponse {
    match dec
        .read_message(stream, Instant::now() + Duration::from_secs(10))
        .expect("tagged frame")
    {
        Some(r) => r,
        None => panic!("server closed the connection"),
    }
}

/// Whether the server ends the connection — EOF or a reset — within 10 s,
/// sending no further frame.
fn closes(stream: &mut TcpStream, dec: &mut FrameDecoder) -> bool {
    match dec.read_message::<TaggedResponse>(stream, Instant::now() + Duration::from_secs(10)) {
        Ok(None) => true,
        Ok(Some(f)) => panic!("frame on a dead connection: {f:?}"),
        Err(e) => !e.message.contains("timed out"),
    }
}

fn run_stream_req(session: u64, theta: f64, k: usize) -> protocol::Request {
    protocol::Request::RunStream(protocol::RunBody {
        session,
        theta,
        k,
        deadline_ms: None,
    })
}

/// A peer that disconnects with a streamed run still in flight: the run is
/// cancelled (its terminal lands in the `errors` bucket — nobody is left to
/// read it), the connection slot is reclaimed, the worker survives to serve
/// the next request, and the orphaned session stays usable from elsewhere.
#[test]
fn mid_stream_disconnect_cancels_the_run_and_reclaims_the_connection() {
    let handle = server(1);
    let addr = handle.addr().to_string();
    let mut observer = Client::connect(&addr).expect("connect observer");
    let baseline = observer.stats().expect("baseline stats");
    assert_eq!(
        baseline.connections_open, 1,
        "only the observer is connected"
    );

    let (mut victim, mut dec) = raw(&addr);
    victim
        .write_all(&tagged(
            1,
            protocol::Request::Open(protocol::OpenBody {
                dataset: "f".into(),
                quantile: 0.75,
            }),
        ))
        .expect("open");
    let session = match read_tagged(&mut victim, &mut dec) {
        TaggedResponse {
            id: 1,
            resp: Response::Opened(o),
        } => o.session,
        other => panic!("expected Opened, got {other:?}"),
    };

    // Park the only worker, queue the stream behind it, then vanish: the
    // run starts strictly after the teardown and must abort on first pick.
    let mut burst = tagged(
        2,
        protocol::Request::Ping(protocol::PingBody { wait_ms: 300 }),
    );
    burst.extend(tagged(3, run_stream_req(session, 3.0, 4)));
    victim.write_all(&burst).expect("burst");
    drop(victim);

    let settled = await_stats(&mut observer, |s| {
        let rs = endpoint(s, "run_stream");
        s.connections_open == 1 && s.queue_len == 0 && rs.requests == 1 && rs.errors == 1
    });
    assert_eq!(
        settled.connections_open, 1,
        "victim's slot was not reclaimed"
    );
    assert_eq!(settled.queue_len, 0, "work stuck in the queue");
    let rs = endpoint(&settled, "run_stream");
    assert_eq!(
        (rs.requests, rs.errors),
        (1, 1),
        "cancelled run not accounted: {rs:?}"
    );
    assert_conserved(&settled);

    // The single worker is alive (a leaked worker would strand this ping
    // forever on a 1-worker pool), and the orphaned session still answers.
    assert!(observer.ping(0).is_ok(), "worker leaked");
    let answer = observer
        .run_answer(session, 3.0, 2)
        .expect("orphaned session run");
    assert!(!answer.ids.is_empty());
    handle.shutdown();
}

/// A half-open peer (write side shut, read side still open) is torn down
/// promptly: a query connection that can no longer send requests is useless,
/// and keeping it would leak its slot and pin its streamed runs forever.
#[test]
fn half_open_sockets_are_torn_down_not_leaked() {
    let handle = server(2);
    let addr = handle.addr().to_string();
    let mut observer = Client::connect(&addr).expect("connect observer");

    let mut s = TcpStream::connect(&addr).expect("connect half-open");
    let mut dec = FrameDecoder::new();
    s.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    s.write_all(&tagged(
        1,
        protocol::Request::Ping(protocol::PingBody { wait_ms: 0 }),
    ))
    .expect("ping");
    assert!(matches!(
        read_tagged(&mut s, &mut dec),
        TaggedResponse {
            id: 1,
            resp: Response::Pong
        }
    ));
    let with_victim = await_stats(&mut observer, |st| st.connections_open == 2);
    assert_eq!(with_victim.connections_open, 2);

    s.shutdown(Shutdown::Write).expect("half-close");

    // The server must notice the EOF and drop the whole connection even
    // though our read side would happily accept more frames.
    let settled = await_stats(&mut observer, |st| st.connections_open == 1);
    assert_eq!(settled.connections_open, 1, "half-open connection leaked");
    assert!(
        closes(&mut s, &mut dec),
        "server kept its write side open to a half-open peer"
    );
    assert_conserved(&observer.stats().expect("final stats"));
    handle.shutdown();
}

/// A peer that sends half a frame and then goes quiet is disconnected once
/// `frame_stall` passes — it would otherwise hold its slot and its decoder
/// buffer forever — while a connection idling *between* frames is left
/// alone however long it sits.
#[test]
fn mid_frame_stalls_are_disconnected_but_idle_connections_are_not() {
    let handle = server_with_frame_stall(1, Duration::from_millis(100));
    let addr = handle.addr().to_string();
    let mut observer = Client::connect(&addr).expect("connect observer");

    // Complete-but-idle: one whole request, answered, then silence.
    let mut idler = TcpStream::connect(&addr).expect("connect idler");
    let mut idler_dec = FrameDecoder::new();
    idler
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    let ping = |id| {
        tagged(
            id,
            protocol::Request::Ping(protocol::PingBody { wait_ms: 0 }),
        )
    };
    idler.write_all(&ping(1)).expect("ping");
    assert!(matches!(
        read_tagged(&mut idler, &mut idler_dec),
        TaggedResponse {
            id: 1,
            resp: Response::Pong
        }
    ));

    let mut staller = TcpStream::connect(&addr).expect("connect staller");
    let mut staller_dec = FrameDecoder::new();
    staller
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    let frame = ping(1);
    staller
        .write_all(&frame[..frame.len() / 2])
        .expect("half a frame");
    let all_in = await_stats(&mut observer, |st| st.connections_open == 3);
    assert_eq!(all_in.connections_open, 3);

    let settled = await_stats(&mut observer, |st| st.connections_open == 2);
    assert_eq!(settled.connections_open, 2, "the staller was not dropped");
    // The staller got one diagnostic, then EOF.
    match read_tagged(&mut staller, &mut staller_dec) {
        TaggedResponse {
            id: u64::MAX,
            resp: Response::Error(e),
        } => {
            assert_eq!(e.code, protocol::codes::BAD_REQUEST);
            assert!(e.message.contains("stalled"), "{}", e.message);
        }
        other => panic!("expected a stall diagnostic, got {other:?}"),
    }
    assert!(
        closes(&mut staller, &mut staller_dec),
        "the stalled connection must be closed"
    );

    // Several stall limits later the idle connection still works.
    std::thread::sleep(Duration::from_millis(300));
    idler.write_all(&ping(2)).expect("ping after idling");
    assert!(matches!(
        read_tagged(&mut idler, &mut idler_dec),
        TaggedResponse {
            id: 2,
            resp: Response::Pong
        }
    ));
    assert_eq!(
        observer.stats().expect("final stats").connections_open,
        2,
        "observer + idler"
    );
    handle.shutdown();
}

/// Connections parked on the reactor cost a slot each and nothing else:
/// beside them a load pass is answered byte-identically to the offline run,
/// none of them is shed while it runs, and dropping them frees every slot.
/// (Two fds per held loopback connection — inside the default 1024 limit.)
#[test]
fn parked_connections_survive_a_load_and_are_reclaimed() {
    const PARKED: usize = 200;
    let handle = server(2);
    let addr = handle.addr().to_string();
    let mut observer = Client::connect(&addr).expect("connect observer");

    let parked: Vec<TcpStream> = (0..PARKED)
        .map(|i| TcpStream::connect(&addr).unwrap_or_else(|e| panic!("park {i}: {e}")))
        .collect();
    let before = await_stats(&mut observer, |s| s.connections_open > PARKED);
    assert!(
        before.connections_open > PARKED,
        "only {} of {PARKED} parked connections registered",
        before.connections_open
    );

    let spec = LoadSpec {
        dataset: "f".into(),
        connections: 2,
        requests_per_conn: 6,
        thetas: vec![3.0, 4.0],
        ks: vec![2, 4],
        quantile: 0.75,
        seed: 1,
        skew: 0.0,
        mode: LoadMode::Blocking,
    };
    let reference = offline_reference(&load_in_memory("f", dataset()), &spec);
    let report = run_load(&addr, &spec).expect("load");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(verify_against_offline(&report, &reference), Ok(12));

    let after = observer.stats().expect("stats after load");
    assert!(
        after.connections_open > PARKED,
        "the load shed parked connections: {} open",
        after.connections_open
    );
    drop(parked);
    let settled = await_stats(&mut observer, |s| s.connections_open == 1);
    assert_eq!(settled.connections_open, 1, "parked slots leaked");
    assert_conserved(&settled);
    handle.shutdown();
}

/// A storm of misbehaving connections — silent drops, truncated headers,
/// mid-stream disconnects, poison frames, half-closes — interleaved with
/// clean clients. Afterwards: gauge at baseline, queue empty, every counter
/// conserved, and the server still streams correct answers.
#[test]
fn fault_storm_conserves_counters_and_keeps_serving() {
    let handle = server(2);
    let addr = handle.addr().to_string();
    let mut observer = Client::connect(&addr).expect("connect observer");

    // One long-lived clean session the storm must not disturb.
    let clean_session = observer.open("f", 0.75).expect("open clean").session;
    let want = observer
        .run_answer(clean_session, 3.0, 3)
        .expect("clean reference")
        .fingerprint();

    for round in 0..24u64 {
        match round % 6 {
            // Connect and say nothing.
            0 => drop(TcpStream::connect(&addr).expect("connect mute")),
            // Truncated frame header, then gone.
            1 => {
                let mut s = TcpStream::connect(&addr).expect("connect trunc");
                s.write_all(&[0x00, 0x00]).expect("half a header");
                drop(s);
            }
            // Disconnect with a stream in flight, one pick in.
            2 => {
                let (mut s, mut dec) = raw(&addr);
                s.write_all(&tagged(
                    1,
                    protocol::Request::Open(protocol::OpenBody {
                        dataset: "f".into(),
                        quantile: 0.75,
                    }),
                ))
                .expect("open");
                let session = match read_tagged(&mut s, &mut dec) {
                    TaggedResponse {
                        resp: Response::Opened(o),
                        ..
                    } => o.session,
                    other => panic!("expected Opened, got {other:?}"),
                };
                s.write_all(&tagged(2, run_stream_req(session, 3.0, 4)))
                    .expect("stream");
                // Read at most one frame, then vanish mid-stream.
                let _ = dec.read_message::<TaggedResponse>(
                    &mut s,
                    Instant::now() + Duration::from_secs(2),
                );
                drop(s);
            }
            // Poison frame; the server answers with a diagnostic and closes.
            3 => {
                let mut s = TcpStream::connect(&addr).expect("connect poison");
                let mut dec = FrameDecoder::new();
                s.set_read_timeout(Some(Duration::from_millis(100)))
                    .expect("timeout");
                let mut junk = 9u32.to_be_bytes().to_vec();
                junk.extend_from_slice(b"not json!");
                s.write_all(&junk).expect("junk");
                match read_tagged(&mut s, &mut dec) {
                    TaggedResponse {
                        id: u64::MAX,
                        resp: Response::Error(e),
                    } => assert_eq!(e.code, protocol::codes::BAD_REQUEST),
                    other => panic!("poison round: {other:?}"),
                }
                drop(s);
            }
            // Half-close after a clean exchange.
            4 => {
                let mut s = TcpStream::connect(&addr).expect("connect half");
                let mut dec = FrameDecoder::new();
                s.set_read_timeout(Some(Duration::from_millis(200)))
                    .expect("timeout");
                s.write_all(&tagged(
                    1,
                    protocol::Request::Ping(protocol::PingBody { wait_ms: 0 }),
                ))
                .expect("ping");
                assert!(matches!(
                    read_tagged(&mut s, &mut dec),
                    TaggedResponse {
                        id: 1,
                        resp: Response::Pong
                    }
                ));
                s.shutdown(Shutdown::Write).expect("half-close");
                drop(s);
            }
            // A fully clean client, mid-storm.
            _ => {
                let mut c = Client::connect(&addr).expect("connect clean");
                let o = c.open("f", 0.75).expect("open");
                let a = c.run_answer(o.session, 3.0, 3).expect("run");
                assert_eq!(a.fingerprint(), want, "storm corrupted a clean client");
            }
        }
    }

    let settled = await_stats(&mut observer, |s| {
        s.connections_open == 1 && s.queue_len == 0
    });
    assert_eq!(settled.connections_open, 1, "storm leaked connection slots");
    assert_eq!(settled.queue_len, 0, "storm left work queued");
    assert_conserved(&settled);
    // Both workers still serve, and streaming still matches the reference.
    assert!(observer.ping(0).is_ok() && observer.ping(0).is_ok());
    let mut c = Client::connect(&addr).expect("connect verifier");
    let (picks, body) = c
        .run_streaming_answer(clean_session, 3.0, 3)
        .expect("post-storm stream");
    assert_eq!(body.fingerprint(), want, "post-storm stream diverged");
    assert_eq!(picks.len(), body.ids.len());
    handle.shutdown();
}

/// An insert of a graph too large for exact GED is answered `bad_request`
/// before any distance is computed: the only worker survives to serve a
/// ping and a run, and the failure is counted as one insert error.
#[test]
fn oversized_insert_is_a_bad_request_not_a_dead_worker() {
    let handle = server(1);
    let addr = handle.addr().to_string();
    let n = graphrep_ged::MAX_EXACT_NODES + 1;
    let (mut s, mut dec) = raw(&addr);
    s.write_all(&tagged(
        1,
        protocol::Request::Insert(protocol::InsertBody {
            dataset: "f".into(),
            nodes: vec![0; n],
            edges: (1..n as u16)
                .map(|v| protocol::WireEdge {
                    u: v - 1,
                    v,
                    label: 0,
                })
                .collect(),
            features: dataset().db.features(0).to_vec(),
        }),
    ))
    .expect("insert");
    match read_tagged(&mut s, &mut dec) {
        TaggedResponse {
            id: 1,
            resp: Response::Error(e),
        } => {
            assert_eq!(e.code, protocol::codes::BAD_REQUEST);
            assert!(e.message.contains("nodes"), "{}", e.message);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }

    let mut c = Client::connect(&addr).expect("connect");
    assert!(matches!(c.ping(0), Ok(Response::Pong)));
    let o = c.open("f", 0.75).expect("open");
    c.run_answer(o.session, 3.0, 3).expect("run");
    let stats = c.stats().expect("stats");
    let insert = endpoint(&stats, "insert");
    assert_eq!((insert.requests, insert.errors), (1, 1), "{insert:?}");
    assert_conserved(&stats);
    handle.shutdown();
}
