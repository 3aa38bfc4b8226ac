//! Per-connection state shared between the reactor thread and the worker
//! pool: the outbound write queue with its backpressure rules, the wake
//! channel that lets workers nudge the reactor, and the I/O-agnostic
//! connection state machine driven by readiness events.
//!
//! ## Backpressure rules
//!
//! * A **streamed** frame (a mid-run pick) is refused when the connection's
//!   write queue already holds more than its byte cap — the producer must
//!   abort the run (`slow_consumer`) instead of buffering without bound.
//! * A **terminal** frame (the single response of a request, or the frame
//!   that ends a stream) is always enqueued, even over the cap: every
//!   admitted request ends with exactly one terminal frame, so the overshoot
//!   is bounded by the number of in-flight requests.
//! * While a queue sits over its cap the reactor stops *reading* from that
//!   connection (interest drops to write-only), which converts our queue
//!   pressure into TCP backpressure on a pipelining peer. That cap is the
//!   only thing that pauses reads: every frame is a tagged request, which
//!   is dispatched the moment it is decoded.

use super::waker::Waker;
use crate::protocol::{DecodeError, FrameDecoder, TaggedRequest};
use graphrep_lockaudit::TrackedMutex;
use std::collections::{HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::sync::Arc;
use std::time::Instant;

/// Outcome of offering a streamed (non-terminal) frame to a write queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamSend {
    /// Enqueued; keep streaming.
    Sent,
    /// The connection is gone; abort silently.
    Closed,
    /// The queue is over its byte cap; abort the run as `slow_consumer`.
    OverCap,
}

struct QueueState {
    frames: VecDeque<Vec<u8>>,
    bytes: usize,
    closed: bool,
    /// Request ids dispatched but not yet terminally answered.
    inflight: HashSet<u64>,
}

/// The outbound side of one connection, shared with the worker pool.
pub struct ConnQueue {
    state: TrackedMutex<QueueState>,
    cap: usize,
    waker: Arc<Waker>,
    token: u64,
}

impl std::fmt::Debug for ConnQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnQueue")
            .field("cap", &self.cap)
            .field("token", &self.token)
            .finish()
    }
}

impl ConnQueue {
    /// A fresh queue for the connection registered under `token`.
    pub fn new(cap: usize, waker: Arc<Waker>, token: u64) -> Self {
        Self {
            state: TrackedMutex::new(
                "serve.reactor.ConnQueue.state",
                QueueState {
                    frames: VecDeque::new(),
                    bytes: 0,
                    closed: false,
                    inflight: HashSet::new(),
                },
            ),
            cap,
            waker,
            token,
        }
    }

    /// Records a dispatched request. Returns `false` for a duplicate live
    /// tag — the caller must reject the request instead of executing it
    /// (two live requests with one id would make their responses
    /// indistinguishable).
    pub fn note_dispatch(&self, tag: u64) -> bool {
        self.state.lock().inflight.insert(tag)
    }

    /// Offers a streamed (non-terminal) frame, subject to the byte cap.
    pub fn push_stream(&self, frame: Vec<u8>) -> StreamSend {
        let outcome = {
            let mut s = self.state.lock();
            if s.closed {
                StreamSend::Closed
            } else if s.bytes > self.cap {
                StreamSend::OverCap
            } else {
                s.bytes += frame.len();
                s.frames.push_back(frame);
                StreamSend::Sent
            }
        };
        if outcome == StreamSend::Sent {
            self.waker.wake(self.token);
        }
        outcome
    }

    /// Enqueues the terminal frame of request `tag`, retiring it from the
    /// in-flight set. Always succeeds while the connection lives (the cap
    /// does not apply; see the module docs). Returns `false` if the
    /// connection is already gone.
    pub fn push_final(&self, tag: u64, frame: Vec<u8>) -> bool {
        let enqueued = {
            let mut s = self.state.lock();
            s.inflight.remove(&tag);
            if s.closed {
                false
            } else {
                s.bytes += frame.len();
                s.frames.push_back(frame);
                true
            }
        };
        if enqueued {
            self.waker.wake(self.token);
        }
        enqueued
    }

    /// Enqueues a frame that answers no tracked request (duplicate-id
    /// rejections, poison diagnostics): the in-flight set is left untouched.
    /// Returns `false` if the connection is gone.
    pub fn push_notice(&self, frame: Vec<u8>) -> bool {
        let enqueued = {
            let mut s = self.state.lock();
            if s.closed {
                false
            } else {
                s.bytes += frame.len();
                s.frames.push_back(frame);
                true
            }
        };
        if enqueued {
            self.waker.wake(self.token);
        }
        enqueued
    }

    /// Marks the connection dead: pending frames are dropped and every
    /// future push is refused, which is what aborts in-flight streamed runs
    /// whose consumer disconnected.
    pub fn mark_closed(&self) {
        let mut s = self.state.lock();
        s.closed = true;
        s.frames.clear();
        s.bytes = 0;
    }

    /// Pops the next outbound frame (reactor side). The byte counter is NOT
    /// decremented here — a popped frame may sit partially written in the
    /// state machine for a long time, and it must keep counting against the
    /// cap until it is actually on the wire ([`ConnQueue::note_written`]).
    fn pop_frame(&self) -> Option<Vec<u8>> {
        let mut s = self.state.lock();
        s.frames.pop_front()
    }

    /// Credits `n` bytes as flushed to the transport.
    fn note_written(&self, n: usize) {
        let mut s = self.state.lock();
        s.bytes = s.bytes.saturating_sub(n);
    }

    /// Whether any outbound frames are queued.
    pub fn has_frames(&self) -> bool {
        let s = self.state.lock();
        !s.frames.is_empty()
    }

    /// Whether the queue is over its byte cap (the read-pause signal).
    pub fn over_cap(&self) -> bool {
        let s = self.state.lock();
        s.bytes > self.cap
    }

    /// Whether the connection has nothing left to do: no queued frames and
    /// no in-flight requests — the drain condition for graceful shutdown.
    pub fn drained(&self) -> bool {
        let s = self.state.lock();
        s.frames.is_empty() && s.inflight.is_empty()
    }
}

/// What [`ConnFsm::on_readable`] learned from one readiness-driven read.
#[derive(Debug, Default)]
pub struct ReadOutcome {
    /// Every request decoded, in arrival order.
    pub requests: Vec<TaggedRequest>,
    /// The peer closed its write side (EOF). Per policy the whole
    /// connection is torn down: a half-open peer that can no longer send
    /// requests has no use for a query connection, and treating EOF as
    /// close is what reclaims its session work promptly.
    pub eof: bool,
    /// Framing lost sync, or a frame was not a tagged request (typed decode
    /// error; nothing behind it was decoded). The connection must send a
    /// best-effort diagnostic and close.
    pub error: Option<DecodeError>,
}

/// The I/O-state half of one connection, owned by the reactor thread.
/// Transport-agnostic: `on_readable`/`on_writable` take any `Read`/`Write`
/// and treat `WouldBlock` as "readiness exhausted", so a spurious wakeup
/// (an event whose read immediately refuses) is a harmless no-op — the unit
/// tests drive this directly with scripted mock streams.
pub struct ConnFsm {
    /// Incremental frame decoder over whatever bytes have arrived.
    pub decoder: FrameDecoder,
    /// The outbound queue shared with workers.
    pub out: Arc<ConnQueue>,
    /// A frame partially written to the socket: remaining bytes.
    pending: Option<Vec<u8>>,
    /// When the last inbound byte arrived, while a frame is half received;
    /// `None` between frames. The reactor's stall sweep disconnects a peer
    /// that leaves a frame unfinished for longer than `frame_stall`.
    pub partial_since: Option<Instant>,
    /// Reads are paused while the peer is over its write-queue cap.
    pub read_paused: bool,
    /// No more requests are accepted; close once writes drain.
    pub closing: bool,
}

impl std::fmt::Debug for ConnFsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnFsm")
            .field("read_paused", &self.read_paused)
            .field("closing", &self.closing)
            .finish()
    }
}

impl ConnFsm {
    /// A fresh connection writing through `out`.
    pub fn new(out: Arc<ConnQueue>) -> Self {
        Self {
            decoder: FrameDecoder::new(),
            out,
            pending: None,
            partial_since: None,
            read_paused: false,
            closing: false,
        }
    }

    /// Drains the transport's readable bytes into the decoder and decodes
    /// every complete frame as a [`TaggedRequest`]. Stops at `WouldBlock`
    /// (readiness exhausted — including the spurious-wakeup case where the
    /// first read refuses), EOF, or the first decode error.
    pub fn on_readable(&mut self, transport: &mut impl Read) -> ReadOutcome {
        let mut out = ReadOutcome::default();
        if self.closing {
            return out;
        }
        let mut buf = [0u8; 64 * 1024];
        let mut progressed = false;
        loop {
            match transport.read(&mut buf) {
                Ok(0) => {
                    out.eof = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    self.decoder.feed(&buf[..n]);
                    loop {
                        match self.decoder.next_message() {
                            Ok(Some(req)) => out.requests.push(req),
                            Ok(None) => break,
                            Err(e) => {
                                out.error = Some(e);
                                return out;
                            }
                        }
                    }
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted =>
                {
                    break;
                }
                Err(_) => {
                    // A hard transport error is indistinguishable from a
                    // vanished peer; tear down like an EOF.
                    out.eof = true;
                    break;
                }
            }
        }
        if progressed {
            self.partial_since = (self.decoder.buffered() > 0).then(Instant::now);
        }
        out
    }

    /// Writes queued frames until the transport refuses or the queue is
    /// empty. Returns `Ok(true)` when everything queued so far is on the
    /// wire, `Ok(false)` when the transport would block (keep write
    /// interest), `Err` when the peer is gone.
    pub fn on_writable(&mut self, transport: &mut impl Write) -> std::io::Result<bool> {
        loop {
            let frame = match self.pending.take() {
                Some(f) => f,
                None => match self.out.pop_frame() {
                    Some(f) => f,
                    None => return Ok(true),
                },
            };
            let mut written = 0;
            while written < frame.len() {
                match transport.write(&frame[written..]) {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            ErrorKind::WriteZero,
                            "peer stopped accepting bytes",
                        ))
                    }
                    Ok(n) => {
                        written += n;
                        self.out.note_written(n);
                    }
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock
                            || e.kind() == ErrorKind::Interrupted =>
                    {
                        self.pending = Some(frame[written..].to_vec());
                        return Ok(false);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }

    /// Whether any outbound bytes are pending (partially written frame or
    /// queued frames).
    pub fn wants_write(&self) -> bool {
        self.pending.is_some() || self.out.has_frames()
    }

    /// The readiness interest this connection currently needs.
    pub fn interest(&self) -> super::poll::Interest {
        super::poll::Interest {
            readable: !self.closing && !self.read_paused,
            writable: self.wants_write(),
        }
    }

    /// Re-evaluates the read-pause state from the queue's cap.
    pub fn update_read_pause(&mut self) {
        let should_pause = self.out.over_cap();
        if self.read_paused && !should_pause {
            // The peer could not make progress while we were not reading:
            // a half-received frame gets a fresh stall clock.
            self.partial_since = self.partial_since.map(|_| Instant::now());
        }
        self.read_paused = should_pause;
    }
}
