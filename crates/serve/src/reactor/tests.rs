//! Deterministic unit tests for the reactor event loop: scripted
//! transports and a scripted [`MockPoll`] drive accept, decode, dispatch,
//! backpressure, poison, and teardown paths — spurious wakeups, EAGAIN
//! loops, and registration/deregistration races included — without a single
//! real socket.

use super::conn::StreamSend;
use super::poll::{Event, Interest, MockPoll, PollOp};
use super::waker::Waker;
use super::*;
use crate::protocol::{encode_frame, ErrorBody, FrameDecoder, PingBody, RunBody, TaggedResponse};
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One scripted inbound read result.
enum ReadStep {
    /// Deliver these bytes.
    Data(Vec<u8>),
    /// Return EOF (`Ok(0)`).
    Eof,
}

#[derive(Clone)]
struct ScriptedTransport {
    fd: i32,
    reads: Arc<Mutex<VecDeque<ReadStep>>>,
    written: Arc<Mutex<Vec<u8>>>,
    block_writes: Arc<AtomicBool>,
}

impl ScriptedTransport {
    fn new(fd: i32) -> Self {
        Self {
            fd,
            reads: Arc::new(Mutex::new(VecDeque::new())),
            written: Arc::new(Mutex::new(Vec::new())),
            block_writes: Arc::new(AtomicBool::new(false)),
        }
    }

    fn push_read(&self, step: ReadStep) {
        self.reads.lock().unwrap().push_back(step);
    }

    fn written(&self) -> Vec<u8> {
        self.written.lock().unwrap().clone()
    }
}

impl io::Read for ScriptedTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.reads.lock().unwrap().pop_front() {
            Some(ReadStep::Data(d)) => {
                assert!(d.len() <= buf.len(), "scripted chunk exceeds read buffer");
                buf[..d.len()].copy_from_slice(&d);
                Ok(d.len())
            }
            Some(ReadStep::Eof) => Ok(0),
            None => Err(io::Error::new(io::ErrorKind::WouldBlock, "drained")),
        }
    }
}

impl io::Write for ScriptedTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.block_writes.load(Ordering::SeqCst) {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "blocked"));
        }
        self.written.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Transport for ScriptedTransport {
    fn raw_fd(&self) -> i32 {
        self.fd
    }
}

const ACCEPT_FD: i32 = 9000;

struct ScriptedAcceptor {
    pending: Arc<Mutex<VecDeque<ScriptedTransport>>>,
}

impl Acceptor for ScriptedAcceptor {
    fn raw_fd(&self) -> i32 {
        ACCEPT_FD
    }

    fn accept_one(&mut self) -> io::Result<Option<Box<dyn Transport>>> {
        Ok(self
            .pending
            .lock()
            .unwrap()
            .pop_front()
            .map(|t| Box::new(t) as Box<dyn Transport>))
    }
}

struct MockDispatch {
    reqs: Mutex<Vec<(u64, Request)>>,
    queues: Mutex<Vec<Arc<ConnQueue>>>,
    opened: AtomicUsize,
    closed: AtomicUsize,
    shutdown: AtomicBool,
    /// Immediately answer every dispatched request with `Response::Closed`.
    auto_final: AtomicBool,
}

impl MockDispatch {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            reqs: Mutex::new(Vec::new()),
            queues: Mutex::new(Vec::new()),
            opened: AtomicUsize::new(0),
            closed: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            auto_final: AtomicBool::new(false),
        })
    }

    fn reqs(&self) -> Vec<(u64, Request)> {
        self.reqs.lock().unwrap().clone()
    }

    fn last_queue(&self) -> Arc<ConnQueue> {
        Arc::clone(self.queues.lock().unwrap().last().expect("no dispatch yet"))
    }
}

impl AsyncDispatch for MockDispatch {
    fn dispatch(&self, req: Request, tag: u64, queue: &Arc<ConnQueue>) {
        self.reqs.lock().unwrap().push((tag, req));
        self.queues.lock().unwrap().push(Arc::clone(queue));
        if self.auto_final.load(Ordering::SeqCst) {
            let frame = encode_response(tag, &Response::Closed).unwrap();
            queue.push_final(tag, frame);
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn conn_opened(&self) {
        self.opened.fetch_add(1, Ordering::SeqCst);
    }

    fn conn_closed(&self) {
        self.closed.fetch_add(1, Ordering::SeqCst);
    }
}

struct Rig {
    reactor: Reactor<MockPoll>,
    dispatch: Arc<MockDispatch>,
    pending: Arc<Mutex<VecDeque<ScriptedTransport>>>,
    draining: bool,
}

impl Rig {
    fn new(write_cap: usize) -> Self {
        Self::with_frame_stall(write_cap, Duration::from_secs(10))
    }

    fn with_frame_stall(write_cap: usize, frame_stall: Duration) -> Self {
        let (waker, wake_rx) = Waker::new().unwrap();
        let dispatch = MockDispatch::new();
        let pending = Arc::new(Mutex::new(VecDeque::new()));
        let acceptor = ScriptedAcceptor {
            pending: Arc::clone(&pending),
        };
        let reactor = Reactor::new(
            MockPoll::new(),
            Box::new(acceptor),
            Arc::new(waker),
            wake_rx,
            Arc::clone(&dispatch) as Arc<dyn AsyncDispatch>,
            write_cap,
            frame_stall,
        )
        .unwrap();
        Self {
            reactor,
            dispatch,
            pending,
            draining: false,
        }
    }

    /// Queues a transport on the acceptor and scripts the accept event.
    fn offer_conn(&mut self, t: &ScriptedTransport) {
        self.pending.lock().unwrap().push_back(t.clone());
        self.reactor.poll.push_batch(vec![Event {
            token: LISTEN_TOKEN,
            readable: true,
            writable: false,
            hangup: false,
        }]);
    }

    fn readable(&mut self, token: u64) {
        self.reactor.poll.push_batch(vec![Event {
            token,
            readable: true,
            writable: false,
            hangup: false,
        }]);
    }

    fn writable(&mut self, token: u64) {
        self.reactor.poll.push_batch(vec![Event {
            token,
            readable: false,
            writable: true,
            hangup: false,
        }]);
    }

    fn turn(&mut self) -> bool {
        let mut d = self.draining;
        let done = self.reactor.turn(&mut d);
        self.draining = d;
        done
    }
}

fn tagged_frame(id: u64, req: Request) -> Vec<u8> {
    encode_frame(&TaggedRequest { id, req }).unwrap()
}

/// Decodes every complete frame in `bytes` as `T`.
fn decode_all<T: serde::Deserialize>(bytes: &[u8]) -> Vec<T> {
    let mut d = FrameDecoder::new();
    d.feed(bytes);
    let mut out = Vec::new();
    while let Some(msg) = d.next_message::<T>().unwrap() {
        out.push(msg);
    }
    out
}

fn ping() -> Request {
    Request::Ping(PingBody { wait_ms: 0 })
}

fn run_stream() -> Request {
    Request::RunStream(RunBody {
        session: 1,
        theta: 1.0,
        k: 2,
        deadline_ms: None,
    })
}

#[test]
fn accept_registers_and_spurious_wakeup_is_a_noop() {
    let mut rig = Rig::new(1 << 20);
    let t = ScriptedTransport::new(7);
    rig.offer_conn(&t);
    rig.turn();
    assert_eq!(rig.reactor.connections(), 1);
    assert_eq!(rig.dispatch.opened.load(Ordering::SeqCst), 1);
    assert_eq!(
        rig.reactor.poll.interest_of(7),
        Some(Interest {
            readable: true,
            writable: false
        })
    );
    // Spurious wakeup: readiness claimed, but the first read would block.
    rig.readable(0);
    rig.turn();
    assert_eq!(
        rig.reactor.connections(),
        1,
        "spurious wakeup must not kill"
    );
    assert!(rig.dispatch.reqs().is_empty());
    assert_eq!(rig.dispatch.closed.load(Ordering::SeqCst), 0);
}

#[test]
fn eagain_loop_reassembles_frames_split_across_reads() {
    let mut rig = Rig::new(1 << 20);
    rig.dispatch.auto_final.store(true, Ordering::SeqCst);
    let t = ScriptedTransport::new(7);
    rig.offer_conn(&t);
    rig.turn();
    let frame = tagged_frame(1, ping());
    // The frame arrives in three fragments over two readiness events; each
    // burst ends in EAGAIN.
    t.push_read(ReadStep::Data(frame[..2].to_vec()));
    t.push_read(ReadStep::Data(frame[2..5].to_vec()));
    rig.readable(0);
    rig.turn();
    assert!(rig.dispatch.reqs().is_empty(), "frame is still incomplete");
    t.push_read(ReadStep::Data(frame[5..].to_vec()));
    rig.readable(0);
    rig.turn();
    assert_eq!(rig.dispatch.reqs(), vec![(1, ping())]);
    // The auto-reply flushed in the same turn via the dirty list.
    let resp: Vec<TaggedResponse> = decode_all(&t.written());
    assert_eq!(
        resp,
        vec![TaggedResponse {
            id: 1,
            resp: Response::Closed
        }]
    );
}

#[test]
fn eof_tears_down_and_aborts_inflight_streams() {
    let mut rig = Rig::new(1 << 20);
    let t = ScriptedTransport::new(7);
    rig.offer_conn(&t);
    rig.turn();
    t.push_read(ReadStep::Data(tagged_frame(1, run_stream())));
    t.push_read(ReadStep::Eof);
    rig.readable(0);
    rig.turn();
    assert_eq!(
        rig.dispatch.reqs().len(),
        1,
        "request before EOF dispatches"
    );
    assert_eq!(rig.reactor.connections(), 0, "EOF closes the connection");
    assert_eq!(rig.dispatch.closed.load(Ordering::SeqCst), 1);
    assert!(rig.reactor.poll.ops.contains(&PollOp::Deregister(7)));
    assert_eq!(rig.reactor.poll.interest_of(7), None);
    // The worker holding the queue now gets refused: the streamed run
    // aborts instead of buffering for a ghost.
    let q = rig.dispatch.last_queue();
    assert_eq!(q.push_stream(vec![1, 2, 3]), StreamSend::Closed);
    assert!(!q.push_final(1, vec![4]));
}

#[test]
fn stale_token_events_after_slot_recycling_hit_nobody() {
    let mut rig = Rig::new(1 << 20);
    let t1 = ScriptedTransport::new(7);
    rig.offer_conn(&t1);
    rig.turn();
    t1.push_read(ReadStep::Eof);
    rig.readable(0);
    rig.turn();
    assert_eq!(rig.reactor.connections(), 0);
    // A second connection recycles slot 0 under generation 1.
    let t2 = ScriptedTransport::new(8);
    rig.offer_conn(&t2);
    rig.turn();
    assert_eq!(rig.reactor.connections(), 1);
    let stale = 0u64; // (gen 0, slot 0) — the dead connection's token
    let live = 1u64 << 32; // (gen 1, slot 0)
                           // Queue data on the live transport, then deliver a stale-token event:
                           // nothing may read it, and a stale hangup must not tear anyone down.
    t2.push_read(ReadStep::Data(tagged_frame(1, ping())));
    rig.readable(stale);
    rig.reactor.poll.push_batch(vec![Event {
        token: stale,
        readable: false,
        writable: false,
        hangup: true,
    }]);
    rig.turn();
    rig.turn();
    assert!(rig.dispatch.reqs().is_empty(), "stale token must not read");
    assert_eq!(rig.reactor.connections(), 1, "stale hangup must not kill");
    rig.readable(live);
    rig.turn();
    assert_eq!(rig.dispatch.reqs(), vec![(1, ping())]);
}

/// Every tagged request dispatches the moment it is decoded: a write-ahead
/// burst goes out whole, nothing waits for an earlier answer, and reads stay
/// on (only the write-queue cap pauses them).
#[test]
fn tagged_write_ahead_dispatches_every_request_at_once() {
    let mut rig = Rig::new(1 << 20);
    let t = ScriptedTransport::new(7);
    rig.offer_conn(&t);
    rig.turn();
    let mut both = tagged_frame(1, ping());
    both.extend(tagged_frame(2, Request::Stats));
    t.push_read(ReadStep::Data(both));
    rig.readable(0);
    rig.turn();
    assert_eq!(
        rig.dispatch.reqs(),
        vec![(1, ping()), (2, Request::Stats)],
        "the second request must not wait for the first one's answer"
    );
    assert_eq!(
        rig.reactor.poll.interest_of(7),
        Some(Interest {
            readable: true,
            writable: false
        }),
        "requests in flight do not pause reads"
    );
    // Answers complete out of order, each under its own id.
    let q = rig.dispatch.last_queue();
    assert!(q.push_final(2, encode_response(2, &Response::Closed).unwrap()));
    assert!(q.push_final(1, encode_response(1, &Response::Pong).unwrap()));
    rig.turn();
    let resp: Vec<TaggedResponse> = decode_all(&t.written());
    assert_eq!(
        resp,
        vec![
            TaggedResponse {
                id: 2,
                resp: Response::Closed
            },
            TaggedResponse {
                id: 1,
                resp: Response::Pong
            }
        ]
    );
    assert!(q.drained());
}

/// A peer that leaves a frame half sent past `frame_stall` is disconnected
/// (slot and decoder buffer reclaimed); a connection idling *between*
/// frames is not.
#[test]
fn mid_frame_stall_is_disconnected_but_idle_connections_survive() {
    let mut rig = Rig::with_frame_stall(1 << 20, Duration::from_millis(2));
    rig.dispatch.auto_final.store(true, Ordering::SeqCst);
    let staller = ScriptedTransport::new(7);
    let idler = ScriptedTransport::new(8);
    rig.offer_conn(&staller);
    rig.offer_conn(&idler);
    rig.turn();
    rig.turn();
    assert_eq!(rig.reactor.connections(), 2);
    let frame = tagged_frame(1, ping());
    staller.push_read(ReadStep::Data(frame[..frame.len() / 2].to_vec()));
    idler.push_read(ReadStep::Data(frame.clone()));
    rig.readable(0);
    rig.readable(1);
    rig.turn();
    rig.turn();
    assert_eq!(
        rig.dispatch.reqs().len(),
        1,
        "the complete frame dispatched"
    );
    std::thread::sleep(Duration::from_millis(10));
    rig.turn();
    assert_eq!(rig.reactor.connections(), 1, "the staller is gone");
    assert_eq!(rig.dispatch.closed.load(Ordering::SeqCst), 1);
    assert_eq!(rig.reactor.poll.interest_of(7), None);
    assert!(
        rig.reactor.poll.interest_of(8).is_some(),
        "the idle connection survives"
    );
    // One best-effort diagnostic went out before the close.
    let frames: Vec<TaggedResponse> = decode_all(&staller.written());
    match frames.as_slice() {
        [TaggedResponse {
            id: u64::MAX,
            resp: Response::Error(ErrorBody { code, message }),
        }] => {
            assert_eq!(code, codes::BAD_REQUEST);
            assert!(message.contains("stalled"), "{message}");
        }
        other => panic!("expected one stall diagnostic, got {other:?}"),
    }
}

#[test]
fn duplicate_live_tag_is_rejected_without_retiring_the_original() {
    let mut rig = Rig::new(1 << 20);
    let t = ScriptedTransport::new(7);
    rig.offer_conn(&t);
    rig.turn();
    // Two live requests under one id: the second must be refused outright.
    t.push_read(ReadStep::Data(tagged_frame(7, run_stream())));
    t.push_read(ReadStep::Data(tagged_frame(7, run_stream())));
    rig.readable(0);
    rig.turn();
    assert_eq!(rig.dispatch.reqs().len(), 1, "duplicate must not dispatch");
    let q = rig.dispatch.last_queue();
    assert!(!q.drained(), "the original request is still in flight");
    let rejections: Vec<TaggedResponse> = decode_all(&t.written())
        .into_iter()
        .filter(|tr: &TaggedResponse| matches!(&tr.resp, Response::Error(_)))
        .collect();
    assert_eq!(rejections.len(), 1);
    assert_eq!(rejections[0].id, 7);
    match &rejections[0].resp {
        Response::Error(ErrorBody { code, .. }) => assert_eq!(code, codes::BAD_REQUEST),
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The original completes normally afterwards.
    assert!(q.push_final(7, encode_response(7, &Response::Closed).unwrap()));
    rig.turn();
    assert!(q.drained());
}

#[test]
fn overfull_write_queue_pauses_reads_until_drained() {
    let mut rig = Rig::new(64);
    let t = ScriptedTransport::new(7);
    rig.offer_conn(&t);
    rig.turn();
    t.push_read(ReadStep::Data(tagged_frame(1, run_stream())));
    rig.readable(0);
    rig.turn();
    let q = rig.dispatch.last_queue();
    // The peer stops reading: writes block, streamed frames pile up.
    t.block_writes.store(true, Ordering::SeqCst);
    assert_eq!(q.push_stream(vec![0u8; 40]), StreamSend::Sent);
    assert_eq!(q.push_stream(vec![0u8; 40]), StreamSend::Sent);
    rig.turn(); // flush attempt blocks; read side must pause
    assert_eq!(
        rig.reactor.poll.interest_of(7),
        Some(Interest {
            readable: false,
            writable: true
        }),
        "over-cap connections drop read interest (TCP backpressure)"
    );
    assert_eq!(
        q.push_stream(vec![0u8; 8]),
        StreamSend::OverCap,
        "producers over the cap must abort as slow_consumer"
    );
    // The peer drains; readiness resumes reads.
    t.block_writes.store(false, Ordering::SeqCst);
    rig.writable(0);
    rig.turn();
    assert_eq!(
        rig.reactor.poll.interest_of(7),
        Some(Interest {
            readable: true,
            writable: false
        })
    );
    assert_eq!(q.push_stream(vec![0u8; 8]), StreamSend::Sent);
}

/// A frame that is not a tagged request — a well-framed payload that is
/// not a request at all, or a bare request without its envelope — gets one
/// diagnostic under the sentinel id and closes the connection; a valid
/// frame behind it is never processed.
#[test]
fn poisoned_connection_sends_one_diagnostic_then_closes() {
    let mut not_a_request = (7u32).to_be_bytes().to_vec();
    not_a_request.extend_from_slice(b"{\"x\":1}");
    for garbage in [not_a_request, encode_frame(&ping()).unwrap()] {
        let mut rig = Rig::new(1 << 20);
        let t = ScriptedTransport::new(7);
        rig.offer_conn(&t);
        rig.turn();
        t.push_read(ReadStep::Data(garbage));
        t.push_read(ReadStep::Data(tagged_frame(1, ping())));
        rig.readable(0);
        rig.turn();
        assert!(
            rig.dispatch.reqs().is_empty(),
            "post-poison frames are dead"
        );
        let frames: Vec<TaggedResponse> = decode_all(&t.written());
        assert_eq!(frames.len(), 1, "exactly one diagnostic");
        match &frames[0] {
            TaggedResponse {
                id: u64::MAX,
                resp: Response::Error(ErrorBody { code, .. }),
            } => assert_eq!(code, codes::BAD_REQUEST),
            other => panic!("expected a sentinel-tagged error frame, got {other:?}"),
        }
        assert_eq!(rig.reactor.connections(), 0, "poison closes after flush");
        assert_eq!(rig.dispatch.closed.load(Ordering::SeqCst), 1);
    }
}

#[test]
fn graceful_drain_waits_for_inflight_work_then_exits() {
    let mut rig = Rig::new(1 << 20);
    let t = ScriptedTransport::new(7);
    rig.offer_conn(&t);
    rig.turn();
    t.push_read(ReadStep::Data(tagged_frame(1, ping())));
    rig.readable(0);
    rig.turn();
    let q = rig.dispatch.last_queue();
    rig.dispatch.shutdown.store(true, Ordering::SeqCst);
    assert!(!rig.turn(), "a connection with in-flight work must survive");
    assert!(
        rig.reactor
            .poll
            .ops
            .contains(&PollOp::Deregister(ACCEPT_FD)),
        "drain stops accepting immediately"
    );
    assert_eq!(rig.reactor.connections(), 1);
    // New connections are refused while draining.
    let late = ScriptedTransport::new(8);
    rig.offer_conn(&late);
    assert!(!rig.turn());
    assert_eq!(rig.reactor.connections(), 1, "no accepts while draining");
    // The worker answers; the reply flushes; drain completes.
    assert!(q.push_final(1, encode_response(1, &Response::Closed).unwrap()));
    assert!(rig.turn(), "drained reactor must exit");
    assert_eq!(rig.reactor.connections(), 0);
    let resp: Vec<TaggedResponse> = decode_all(&t.written());
    assert_eq!(
        resp,
        vec![TaggedResponse {
            id: 1,
            resp: Response::Closed
        }],
        "the final answer still lands"
    );
}

#[test]
fn register_failure_on_accept_tears_the_connection_down() {
    let mut rig = Rig::new(1 << 20);
    let t1 = ScriptedTransport::new(7);
    rig.offer_conn(&t1);
    rig.turn();
    // Same fd registered twice: MockPoll refuses, mirroring an EEXIST/ENOMEM
    // epoll_ctl failure; the reactor must give up on that connection only.
    let t2 = ScriptedTransport::new(7);
    rig.offer_conn(&t2);
    rig.turn();
    assert_eq!(rig.reactor.connections(), 1);
    assert_eq!(rig.dispatch.opened.load(Ordering::SeqCst), 2);
    assert_eq!(rig.dispatch.closed.load(Ordering::SeqCst), 1);
}

#[test]
fn waker_dirty_list_is_token_deduplicated_per_take() {
    let (waker, mut rx) = Waker::new().unwrap();
    waker.wake(3);
    waker.wake(3);
    waker.wake(9);
    Waker::drain_wake_bytes(&mut rx);
    let mut dirty = waker.take_dirty();
    dirty.sort_unstable();
    dirty.dedup();
    assert_eq!(dirty, vec![3, 9]);
    assert!(waker.take_dirty().is_empty(), "take clears the list");
}
