//! Byte-level torture of the tagged framing stack: property-based fuzzing
//! of the incremental [`FrameDecoder`] (frames split at arbitrary read
//! boundaries, garbage, truncation, oversized announcements), plus
//! deterministic wire-level abuse of a live server — duplicate request
//! ids, mixed-type pipelined bursts, garbage and bare (untagged) frames,
//! slow-reader backpressure — all of which must surface as typed errors on
//! the right connection, never as a panic, a hang, or a frame on someone
//! else's stream.

use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_serve::registry::load_in_memory;
use graphrep_serve::{
    protocol, start, Client, DatasetRegistry, DecodeError, FrameDecoder, Response, ServeConfig,
    TaggedRequest, TaggedResponse,
};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Decoder fuzzing (no sockets): the FrameDecoder must reassemble any frame
// sequence exactly regardless of how the bytes are chopped up, and must turn
// every malformed input into a typed error without panicking.
// ---------------------------------------------------------------------------

/// Arbitrary UTF-8 payloads, empty strings and astral-plane scalars included.
fn payload() -> impl Strategy<Value = String> {
    collection::vec(0u32..0x11_0000, 0..200)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

/// Length-prefixes `payload` exactly as [`protocol::write_frame`] does.
fn frame_bytes(payload: &str) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Drains every complete payload currently decodable.
fn drain(dec: &mut FrameDecoder, into: &mut Vec<String>) -> Result<(), DecodeError> {
    while let Some(p) = dec.next_payload()? {
        into.push(p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any frame sequence fed in arbitrary-sized chunks — including chunks
    /// that split a length header or straddle a frame boundary — decodes to
    /// exactly the original payloads, leaving nothing buffered.
    #[test]
    fn frames_reassemble_across_arbitrary_read_boundaries(
        payloads in collection::vec(payload(), 1..8),
        cuts in collection::vec(1usize..64, 0..64),
    ) {
        let wire: Vec<u8> = payloads.iter().flat_map(|p| frame_bytes(p)).collect();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut off = 0;
        for cut in cuts {
            if off >= wire.len() {
                break;
            }
            let end = (off + cut).min(wire.len());
            dec.feed(&wire[off..end]);
            off = end;
            if let Err(e) = drain(&mut dec, &mut got) {
                return Err(TestCaseError::fail(format!("decode error on valid input: {e}")));
            }
        }
        dec.feed(&wire[off..]);
        if let Err(e) = drain(&mut dec, &mut got) {
            return Err(TestCaseError::fail(format!("decode error on valid input: {e}")));
        }
        prop_assert_eq!(&got, &payloads);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Arbitrary byte soup must terminate in bounded pulls with either
    /// "need more bytes" or a typed error — never a panic and never a pull
    /// that makes no progress. (`Display` on the error must not panic
    /// either; it ends up in the wire diagnostic.)
    #[test]
    fn garbage_terminates_with_a_typed_error_or_starvation(
        soup in collection::vec(0u8..=255, 0..600),
    ) {
        let mut dec = FrameDecoder::new();
        dec.feed(&soup);
        // Every Ok(Some) consumes >= 4 bytes, so this bound is generous.
        let mut pulls = 0;
        loop {
            pulls += 1;
            prop_assert!(pulls <= soup.len() + 8, "decoder failed to make progress");
            match dec.next_payload() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(!e.to_string().is_empty());
                    break;
                }
            }
        }
    }

    /// A header announcing more than [`protocol::MAX_FRAME_BYTES`] is an
    /// `Oversized` error carrying the announced length — the decoder must
    /// refuse before buffering the body.
    #[test]
    fn oversized_announcements_are_refused_up_front(
        extra in 1usize..(u32::MAX as usize - protocol::MAX_FRAME_BYTES),
        junk in collection::vec(0u8..=255, 0..32),
    ) {
        let announced = protocol::MAX_FRAME_BYTES + extra;
        let mut dec = FrameDecoder::new();
        dec.feed(&(announced as u32).to_be_bytes());
        dec.feed(&junk);
        match dec.next_payload() {
            Err(DecodeError::Oversized { announced: a }) => prop_assert_eq!(a, announced),
            other => return Err(TestCaseError::fail(format!(
                "expected Oversized, got {other:?}"
            ))),
        }
    }

    /// A frame whose body is not UTF-8 yields a typed `Utf8` error, and the
    /// frame is consumed before validation: a well-formed frame right behind
    /// it still decodes intact (framing never loses sync on bad payloads).
    #[test]
    fn invalid_utf8_is_consumed_without_desyncing_the_framing(
        tail in collection::vec(0u8..=255, 0..64),
        follow in payload(),
    ) {
        // 0xff is never valid anywhere in a UTF-8 sequence.
        let mut bad = vec![0xffu8];
        bad.extend_from_slice(&tail);
        let mut wire = (bad.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&bad);
        wire.extend_from_slice(&frame_bytes(&follow));

        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        prop_assert!(matches!(dec.next_payload(), Err(DecodeError::Utf8 { .. })));
        match dec.next_payload() {
            Ok(Some(p)) => prop_assert_eq!(p, follow),
            other => return Err(TestCaseError::fail(format!(
                "frame after a bad payload must decode, got {other:?}"
            ))),
        }
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// A truncated frame is "need more bytes", not an error: the decoder
    /// reports the partial bytes as buffered and completes the frame the
    /// moment the remainder arrives.
    #[test]
    fn truncated_frames_wait_for_the_remainder(
        body in payload(),
        hold in 1usize..16,
    ) {
        let wire = frame_bytes(&body);
        let hold = hold.min(wire.len() - 1).max(1);
        let split = wire.len() - hold;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..split]);
        prop_assert!(matches!(dec.next_payload(), Ok(None)));
        prop_assert_eq!(dec.buffered(), split);
        dec.feed(&wire[split..]);
        match dec.next_payload() {
            Ok(Some(p)) => prop_assert_eq!(p, body),
            other => return Err(TestCaseError::fail(format!(
                "completed frame must decode, got {other:?}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-level torture against a live server.
// ---------------------------------------------------------------------------

fn server(workers: usize, write_queue_cap: usize) -> graphrep_serve::ServerHandle {
    let data = DatasetSpec::new(DatasetKind::DudLike, 60, 20140622).generate();
    let mut reg = DatasetRegistry::new();
    reg.insert(load_in_memory("t", data));
    start(
        ServeConfig {
            workers,
            write_queue_cap,
            ..Default::default()
        },
        reg,
    )
    .expect("server start")
}

/// A bare socket, ready for tagged frames, and the decoder that reads it.
fn raw(addr: &str) -> (TcpStream, FrameDecoder) {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    (s, FrameDecoder::new())
}

/// Blocks until one tagged frame arrives (10 s cap). `dec` keeps any bytes
/// a read took past this frame for the next call.
fn read_tagged(stream: &mut TcpStream, dec: &mut FrameDecoder) -> TaggedResponse {
    match dec
        .read_message(stream, Instant::now() + Duration::from_secs(10))
        .expect("tagged frame")
    {
        Some(r) => r,
        None => panic!("server closed the connection"),
    }
}

fn tagged(id: u64, req: protocol::Request) -> Vec<u8> {
    protocol::encode_frame(&TaggedRequest { id, req }).expect("encode")
}

fn open_body() -> protocol::Request {
    protocol::Request::Open(protocol::OpenBody {
        dataset: "t".into(),
        quantile: 0.75,
    })
}

fn run_body(session: u64, theta: f64, k: usize) -> protocol::RunBody {
    protocol::RunBody {
        session,
        theta,
        k,
        deadline_ms: None,
    }
}

/// Reusing a live request id is rejected as `bad_request` without touching
/// the original request: the first stream still runs to completion and its
/// answer matches the blocking answer for the same query.
#[test]
fn duplicate_live_request_ids_are_rejected_without_killing_the_original() {
    // One worker: the slow ping below provably holds it while the reactor
    // parses both id-7 frames, so the first is still live (queued) when the
    // duplicate arrives — no race with how fast the run finishes.
    let handle = server(1, 4 << 20);
    let addr = handle.addr().to_string();

    // Ground truth over the ordinary client.
    let mut reference = Client::connect(&addr).expect("connect reference");
    let ro = reference.open("t", 0.75).expect("open reference");
    // A known-good grid point: the dataset's default ladder midpoint.
    let theta = 3.0;
    let want = reference
        .run_answer(ro.session, theta, 3)
        .expect("reference run")
        .fingerprint();

    let (mut s, mut dec) = raw(&addr);
    s.write_all(&tagged(1, open_body())).expect("open");
    let session = match read_tagged(&mut s, &mut dec) {
        TaggedResponse {
            id: 1,
            resp: Response::Opened(o),
        } => o.session,
        other => panic!("expected Opened for id 1, got {other:?}"),
    };

    // Two streams under ONE id, back to back behind a ping that parks the
    // only worker: the second must be refused while the first is live.
    let mut burst = tagged(
        2,
        protocol::Request::Ping(protocol::PingBody { wait_ms: 300 }),
    );
    burst.extend(tagged(
        7,
        protocol::Request::RunStream(run_body(session, theta, 3)),
    ));
    burst.extend(tagged(
        7,
        protocol::Request::RunStream(run_body(session, theta, 3)),
    ));
    s.write_all(&burst).expect("duplicate burst");

    let mut picks = 0usize;
    let mut answer = None;
    let mut rejection = None;
    while answer.is_none() || rejection.is_none() {
        let t = read_tagged(&mut s, &mut dec);
        if (t.id, &t.resp) == (2, &Response::Pong) {
            continue;
        }
        assert_eq!(t.id, 7, "no other id is in flight");
        match t.resp {
            Response::Pick(_) => picks += 1,
            Response::AnswerEnd(b) => answer = Some(b),
            Response::Error(e) => {
                assert_eq!(e.code, protocol::codes::BAD_REQUEST);
                assert!(
                    e.message.contains("already in flight"),
                    "unexpected rejection: {}",
                    e.message
                );
                rejection = Some(e);
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    let answer = answer.unwrap();
    assert_eq!(
        answer.fingerprint(),
        want,
        "the original stream was corrupted"
    );
    assert_eq!(picks, answer.ids.len(), "one pick frame per representative");

    // The id is free again after the terminal frame: reusing it now is fine.
    s.write_all(&tagged(7, protocol::Request::Stats))
        .expect("reuse");
    match read_tagged(&mut s, &mut dec) {
        TaggedResponse {
            id: 7,
            resp: Response::Stats(_),
        } => {}
        other => panic!("retired id must be reusable, got {other:?}"),
    }
    handle.shutdown();
}

/// A single burst mixing every request family — streamed runs, blocking
/// runs, inline stats, worker-pool pings — under distinct tags: every
/// response carries the tag of its own request and no stream leaks frames
/// into another.
#[test]
fn mixed_type_pipelined_bursts_keep_every_tag_straight() {
    let handle = server(4, 4 << 20);
    let addr = handle.addr().to_string();
    let (mut s, mut dec) = raw(&addr);

    s.write_all(&tagged(1, open_body())).expect("open");
    let session = match read_tagged(&mut s, &mut dec) {
        TaggedResponse {
            id: 1,
            resp: Response::Opened(o),
        } => o.session,
        other => panic!("expected Opened, got {other:?}"),
    };

    let mut burst = Vec::new();
    burst.extend(tagged(
        10,
        protocol::Request::RunStream(run_body(session, 3.0, 3)),
    ));
    burst.extend(tagged(
        11,
        protocol::Request::Run(run_body(session, 3.0, 3)),
    ));
    burst.extend(tagged(12, protocol::Request::Stats));
    burst.extend(tagged(
        13,
        protocol::Request::Ping(protocol::PingBody { wait_ms: 5 }),
    ));
    burst.extend(tagged(
        14,
        protocol::Request::RunStream(run_body(session, 2.4, 2)),
    ));
    s.write_all(&burst).expect("burst");

    let mut picks_by_id = std::collections::HashMap::<u64, Vec<protocol::PickBody>>::new();
    let mut terminals = std::collections::HashMap::<u64, Response>::new();
    while terminals.len() < 5 {
        let t = read_tagged(&mut s, &mut dec);
        match t.resp {
            Response::Pick(p) => picks_by_id.entry(t.id).or_default().push(p),
            resp => {
                assert!(
                    terminals.insert(t.id, resp).is_none(),
                    "two terminal frames for id {}",
                    t.id
                );
            }
        }
    }

    // Each tag got the response type its request implies.
    let stream_a = match &terminals[&10] {
        Response::AnswerEnd(b) => b.clone(),
        other => panic!("id 10: {other:?}"),
    };
    let blocking = match &terminals[&11] {
        Response::Answer(b) => b.clone(),
        other => panic!("id 11: {other:?}"),
    };
    assert!(matches!(&terminals[&12], Response::Stats(_)), "id 12");
    assert!(matches!(&terminals[&13], Response::Pong), "id 13");
    let stream_b = match &terminals[&14] {
        Response::AnswerEnd(b) => b.clone(),
        other => panic!("id 14: {other:?}"),
    };

    // Streams only ever carry pick frames for streamed requests, and each
    // stream's picks belong to its own answer.
    assert_eq!(
        picks_by_id
            .keys()
            .copied()
            .collect::<std::collections::BTreeSet<_>>(),
        [10u64, 14].into_iter().collect(),
        "pick frames leaked onto a non-streamed tag"
    );
    assert_eq!(stream_a.fingerprint(), blocking.fingerprint());
    graphrep_serve::verify_stream_consistency(&picks_by_id[&10], &stream_a).expect("stream 10");
    graphrep_serve::verify_stream_consistency(&picks_by_id[&14], &stream_b).expect("stream 14");
    handle.shutdown();
}

/// Garbage on the wire gets exactly one typed diagnostic, then the server
/// closes that connection — and only that connection: a neighbor opened
/// before the garbage keeps working.
#[test]
fn garbage_frames_poison_only_their_own_connection() {
    let handle = server(2, 4 << 20);
    let addr = handle.addr().to_string();

    let mut neighbor = Client::connect(&addr).expect("connect neighbor");
    let no = neighbor.open("t", 0.75).expect("open neighbor");

    for (name, garbage) in [
        // A well-formed request without its `{id, req}` envelope.
        (
            "bare (untagged) request",
            protocol::encode_frame(&protocol::Request::Ping(protocol::PingBody { wait_ms: 0 }))
                .expect("encode"),
        ),
        // A frame whose body is not JSON at all.
        ("non-json body", frame_bytes("hunter2 hunter2 hunter2")),
        // A frame whose body is not UTF-8.
        ("non-utf8 body", {
            let mut w = 5u32.to_be_bytes().to_vec();
            w.extend_from_slice(&[0xff, 0xfe, 0x00, 0x9f, 0x92]);
            w
        }),
        // A header announcing an absurd length.
        ("oversized header", (u32::MAX).to_be_bytes().to_vec()),
    ] {
        let (mut s, mut dec) = raw(&addr);
        // Prove the connection works before the poison.
        s.write_all(&tagged(
            1,
            protocol::Request::Ping(protocol::PingBody { wait_ms: 0 }),
        ))
        .expect("ping");
        assert!(
            matches!(
                read_tagged(&mut s, &mut dec),
                TaggedResponse {
                    id: 1,
                    resp: Response::Pong
                }
            ),
            "{name}: pre-poison ping"
        );

        s.write_all(&garbage)
            .unwrap_or_else(|e| panic!("{name}: write garbage: {e}"));
        match read_tagged(&mut s, &mut dec) {
            TaggedResponse {
                id: u64::MAX,
                resp: Response::Error(e),
            } => assert_eq!(
                e.code,
                protocol::codes::BAD_REQUEST,
                "{name}: diagnostic code"
            ),
            other => panic!("{name}: expected a diagnostic, got {other:?}"),
        }
        // After the diagnostic the server closes; EOF (or a reset) must
        // arrive within the 10 s deadline.
        let saw_eof = match dec
            .read_message::<TaggedResponse>(&mut s, Instant::now() + Duration::from_secs(10))
        {
            Ok(None) => true,
            Ok(Some(f)) => panic!("{name}: frame after the poison diagnostic: {f:?}"),
            Err(e) => !e.message.contains("timed out"),
        };
        assert!(
            saw_eof,
            "{name}: connection must close after the diagnostic"
        );
    }

    // The neighbor never noticed.
    let answer = neighbor
        .run_answer(no.session, 3.0, 2)
        .expect("neighbor run");
    assert!(!answer.ids.is_empty());
    handle.shutdown();
}

/// A pipelining peer that stops reading while responses pile up: once the
/// connection's write queue passes its cap, the in-flight streamed run is
/// cancelled as `slow_consumer` instead of buffering without bound — and
/// the connection itself survives to serve the peer once it drains.
#[test]
fn a_stalled_reader_gets_slow_consumer_not_unbounded_buffering() {
    // Tiny write-queue cap, one worker so the stream sits queued behind a
    // slow ping while the stats flood lands.
    let handle = server(1, 8 << 10);
    let addr = handle.addr().to_string();
    let (mut s, mut dec) = raw(&addr);

    s.write_all(&tagged(1, open_body())).expect("open");
    let session = match read_tagged(&mut s, &mut dec) {
        TaggedResponse {
            id: 1,
            resp: Response::Opened(o),
        } => o.session,
        other => panic!("expected Opened, got {other:?}"),
    };

    // One burst, written while we deliberately do NOT read:
    //   tag 2 — a ping that parks the only worker for 400 ms;
    //   tag 3 — the streamed run, queued behind the ping;
    //   tags 1000.. — a flood of inline-answered stats requests whose
    //   responses (far more than the 8 KiB cap, far more than the kernel's
    //   socket buffers absorb) jam the write queue before the run starts.
    let mut burst = Vec::new();
    burst.extend(tagged(
        2,
        protocol::Request::Ping(protocol::PingBody { wait_ms: 400 }),
    ));
    burst.extend(tagged(
        3,
        protocol::Request::RunStream(run_body(session, 3.0, 4)),
    ));
    let flood = 2000u64;
    for i in 0..flood {
        burst.extend(tagged(1000 + i, protocol::Request::Stats));
    }
    // The server pauses reads once its queue passes the cap, so a blocking
    // write_all could deadlock against our own silence: write what fits.
    s.set_nonblocking(true).expect("nonblocking");
    let mut sent = 0;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while sent < burst.len() && std::time::Instant::now() < deadline {
        match s.write(&burst[sent..]) {
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("burst write: {e}"),
        }
    }
    s.set_nonblocking(false).expect("blocking again");
    let header = 4 + tagged(2, protocol::Request::Stats).len();
    assert!(
        sent > header * 32,
        "could not deliver enough of the flood to matter ({sent} bytes)"
    );

    // Let the ping expire and the stream slam into the jammed queue.
    std::thread::sleep(Duration::from_millis(600));

    // NOW drain everything. Somewhere in the pile: pong for 2, a terminal
    // for 3 that must be the slow_consumer cancellation, stats for the rest.
    let mut run_terminal = None;
    let mut pong = false;
    while run_terminal.is_none() || !pong {
        let t = read_tagged(&mut s, &mut dec);
        match (t.id, t.resp) {
            (2, Response::Pong) => pong = true,
            (3, resp) => run_terminal = Some(resp),
            (id, Response::Stats(_)) if id >= 1000 => {}
            (id, resp) => panic!("unexpected frame for id {id}: {resp:?}"),
        }
    }
    match run_terminal.unwrap() {
        Response::Error(e) => assert_eq!(
            e.code,
            protocol::codes::SLOW_CONSUMER,
            "stalled-reader stream must die as slow_consumer: {}",
            e.message
        ),
        other => panic!("stalled-reader stream must be cancelled, got {other:?}"),
    }

    // The connection is merely backpressured, not broken: now that we read,
    // it serves fresh requests — including the same query, streamed whole.
    s.write_all(&tagged(
        5000,
        protocol::Request::RunStream(run_body(session, 3.0, 4)),
    ))
    .expect("post-stall run");
    let mut picks = 0;
    let body = loop {
        let t = read_tagged(&mut s, &mut dec);
        match (t.id, t.resp) {
            (5000, Response::Pick(_)) => picks += 1,
            (5000, Response::AnswerEnd(b)) => break b,
            (id, Response::Stats(_)) if id >= 1000 => {} // stragglers
            (id, resp) => panic!("post-stall: id {id}: {resp:?}"),
        }
    };
    assert_eq!(picks, body.ids.len());
    handle.shutdown();
}
