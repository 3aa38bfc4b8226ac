//! The event-driven I/O core of the server: one reactor thread multiplexes
//! every connection over a level-triggered [`poll::Poll`] (epoll in
//! production, a scripted mock in tests), decodes frames incrementally, and
//! hands query work to the bounded worker pool. Compute stays threaded; only
//! I/O is readiness-driven.
//!
//! Layering, bottom up:
//!
//! * [`sys`] — the unsafe epoll FFI;
//! * [`poll`] — the readiness seam: [`poll::Poll`], [`poll::MockPoll`];
//! * [`waker`] — worker→reactor wake channel (socketpair + dirty list);
//! * [`conn`] — per-connection write queue with backpressure and the
//!   transport-agnostic read/write state machine;
//! * this module — the slab of live connections (generation-tagged tokens,
//!   so stale readiness events for recycled slots are ignored), the accept
//!   path, dispatch glue (each tagged request goes out the moment it is
//!   decoded), the mid-frame stall sweep, and graceful drain.

pub mod conn;
pub mod poll;
pub mod sys;
#[cfg(test)]
mod tests;
pub mod waker;

use crate::protocol::{self, codes, ErrorBody, Request, Response, Tagged, TaggedRequest};
use conn::{ConnFsm, ConnQueue};
use poll::{Event, Interest, Poll};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use waker::Waker;

/// Token of the wake-channel read end.
pub const WAKE_TOKEN: u64 = u64::MAX;
/// Token of the listening socket.
pub const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// A byte stream the reactor can drive: nonblocking reads/writes plus the
/// raw fd to register. Object-safe so tests can substitute scripted
/// in-memory transports for TCP sockets.
pub trait Transport: Read + Write + Send {
    /// The fd registered with the poller (an opaque key under a mock).
    fn raw_fd(&self) -> i32;
}

impl Transport for TcpStream {
    fn raw_fd(&self) -> i32 {
        self.as_raw_fd()
    }
}

impl Transport for UnixStream {
    fn raw_fd(&self) -> i32 {
        self.as_raw_fd()
    }
}

/// A connection source the reactor polls for accept readiness.
pub trait Acceptor: Send {
    /// The listener fd to register.
    fn raw_fd(&self) -> i32;
    /// Accepts one pending connection, `Ok(None)` when none is waiting.
    fn accept_one(&mut self) -> std::io::Result<Option<Box<dyn Transport>>>;
}

/// Nonblocking TCP accept source.
pub struct TcpAcceptor {
    listener: TcpListener,
}

impl std::fmt::Debug for TcpAcceptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpAcceptor")
            .field("fd", &self.listener.as_raw_fd())
            .finish()
    }
}

impl TcpAcceptor {
    /// Wraps a bound listener, switching it to nonblocking mode.
    pub fn new(listener: TcpListener) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        Ok(Self { listener })
    }
}

impl Acceptor for TcpAcceptor {
    fn raw_fd(&self) -> i32 {
        self.listener.as_raw_fd()
    }

    fn accept_one(&mut self) -> std::io::Result<Option<Box<dyn Transport>>> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(true)?;
                let _ = stream.set_nodelay(true);
                Ok(Some(Box::new(stream)))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// The server-side hooks the reactor drives: request dispatch (inline or
/// pooled — the implementation decides and enqueues responses through the
/// connection's [`ConnQueue`]), the drain flag, and connection accounting.
pub trait AsyncDispatch: Send + Sync {
    /// Handles one decoded request from a connection. `tag` is its request
    /// id; every request must eventually produce exactly one terminal frame
    /// through `queue`.
    fn dispatch(&self, req: Request, tag: u64, queue: &Arc<ConnQueue>);
    /// Whether graceful drain has begun.
    fn shutting_down(&self) -> bool;
    /// A connection was accepted.
    fn conn_opened(&self);
    /// A connection was torn down.
    fn conn_closed(&self);
}

struct ConnEntry {
    transport: Box<dyn Transport>,
    fsm: ConnFsm,
    /// Interest currently registered with the poller, to elide no-op
    /// `modify` calls.
    registered: Interest,
}

struct Slot {
    conn: Option<ConnEntry>,
    gen: u32,
}

/// Connection storage with generation-tagged tokens: a token addresses
/// (slot, generation), so a readiness event that raced a teardown — its
/// token's slot since recycled — resolves to nothing instead of a stranger.
#[derive(Default)]
pub struct Slab {
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
}

impl std::fmt::Debug for Slab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slab")
            .field("slots", &self.slots.len())
            .field("live", &self.live)
            .finish()
    }
}

impl Slab {
    fn token_of(idx: usize, gen: u32) -> u64 {
        ((gen as u64) << 32) | idx as u64
    }

    /// Inserts a connection built from its assigned token.
    fn insert_with(&mut self, make: impl FnOnce(u64) -> ConnEntry) -> u64 {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot { conn: None, gen: 0 });
                self.slots.len() - 1
            }
        };
        let gen = self.slots[idx].gen;
        let token = Self::token_of(idx, gen);
        self.slots[idx].conn = Some(make(token));
        self.live += 1;
        token
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut ConnEntry> {
        let idx = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        let slot = self.slots.get_mut(idx)?;
        if slot.gen != gen {
            return None;
        }
        slot.conn.as_mut()
    }

    fn remove(&mut self, token: u64) -> Option<ConnEntry> {
        let idx = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        let slot = self.slots.get_mut(idx)?;
        if slot.gen != gen {
            return None;
        }
        let conn = slot.conn.take()?;
        // Recycle the slot under a fresh generation; stale tokens go dead.
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        Some(conn)
    }

    /// Tokens of all live connections.
    fn tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.conn.is_some())
            .map(|(i, s)| Self::token_of(i, s.gen))
            .collect()
    }

    /// Number of live connections.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no connection is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// The reactor: owns the poller, the accept source, the wake channel, and
/// every connection. Generic over [`Poll`] so the event loop runs under the
/// scripted [`poll::MockPoll`] in unit tests.
pub struct Reactor<P: Poll> {
    poll: P,
    acceptor: Option<Box<dyn Acceptor>>,
    wake_rx: UnixStream,
    waker: Arc<Waker>,
    dispatch: Arc<dyn AsyncDispatch>,
    conns: Slab,
    write_cap: usize,
    /// How long a peer may leave a frame half sent before it is dropped.
    frame_stall: Duration,
    last_stall_sweep: Instant,
}

impl<P: Poll> std::fmt::Debug for Reactor<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("conns", &self.conns.len())
            .field("write_cap", &self.write_cap)
            .finish()
    }
}

impl<P: Poll> Reactor<P> {
    /// Builds a reactor and registers the listener and wake channel.
    pub fn new(
        mut poll: P,
        acceptor: Box<dyn Acceptor>,
        waker: Arc<Waker>,
        wake_rx: UnixStream,
        dispatch: Arc<dyn AsyncDispatch>,
        write_cap: usize,
        frame_stall: Duration,
    ) -> std::io::Result<Self> {
        poll.register(
            acceptor.raw_fd(),
            LISTEN_TOKEN,
            Interest {
                readable: true,
                writable: false,
            },
        )?;
        poll.register(
            wake_rx.as_raw_fd(),
            WAKE_TOKEN,
            Interest {
                readable: true,
                writable: false,
            },
        )?;
        Ok(Self {
            poll,
            acceptor: Some(acceptor),
            wake_rx,
            waker,
            dispatch,
            conns: Slab::default(),
            write_cap,
            frame_stall,
            last_stall_sweep: Instant::now(),
        })
    }

    /// Runs the event loop until graceful drain completes: shutdown flag
    /// up, accept source closed, every connection's in-flight work answered
    /// and flushed, every connection closed.
    pub fn run(mut self) {
        let mut draining = false;
        while !self.turn(&mut draining) {}
    }

    /// One iteration of the event loop — one bounded `wait` (so the
    /// shutdown flag is polled even if no event ever arrives), event
    /// handling, dirty-connection flushes, the stall sweep, drain
    /// bookkeeping. Returns
    /// `true` once graceful drain completed. Split out of [`Reactor::run`]
    /// so the mock-poll unit tests can single-step the loop.
    fn turn(&mut self, draining: &mut bool) -> bool {
        let mut events: Vec<Event> = Vec::new();
        let _ = self.poll.wait(&mut events, Some(Duration::from_millis(50)));
        for ev in events {
            match ev.token {
                WAKE_TOKEN => Waker::drain_wake_bytes(&mut self.wake_rx),
                LISTEN_TOKEN => self.accept_ready(*draining),
                token => self.conn_event(token, ev),
            }
        }
        for token in self.waker.take_dirty() {
            self.flush_conn(token);
        }
        // At most once a second (sooner only under a sub-second limit), not
        // per event: the sweep walks every connection.
        if self.last_stall_sweep.elapsed() >= self.frame_stall.min(Duration::from_secs(1)) {
            self.last_stall_sweep = Instant::now();
            self.sweep_stalled();
        }
        if self.dispatch.shutting_down() {
            if !*draining {
                *draining = true;
                if let Some(a) = self.acceptor.take() {
                    let _ = self.poll.deregister(a.raw_fd());
                }
            }
            // Close connections with nothing left in flight or queued.
            for token in self.conns.tokens() {
                let done = match self.conns.get_mut(token) {
                    Some(c) => c.fsm.out.drained() && !c.fsm.wants_write(),
                    None => false,
                };
                if done {
                    self.teardown(token);
                }
            }
            if self.conns.is_empty() {
                return true;
            }
        }
        false
    }

    fn accept_ready(&mut self, draining: bool) {
        if draining {
            return;
        }
        loop {
            let accepted = match self.acceptor.as_mut() {
                Some(a) => a.accept_one(),
                None => return,
            };
            match accepted {
                Ok(Some(transport)) => {
                    let waker = Arc::clone(&self.waker);
                    let cap = self.write_cap;
                    let fd = transport.raw_fd();
                    let token = self.conns.insert_with(|token| {
                        let queue = Arc::new(ConnQueue::new(cap, waker, token));
                        ConnEntry {
                            transport,
                            fsm: ConnFsm::new(queue),
                            registered: Interest {
                                readable: true,
                                writable: false,
                            },
                        }
                    });
                    self.dispatch.conn_opened();
                    if self
                        .poll
                        .register(
                            fd,
                            token,
                            Interest {
                                readable: true,
                                writable: false,
                            },
                        )
                        .is_err()
                    {
                        self.teardown(token);
                    }
                }
                Ok(None) => return,
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, token: u64, ev: Event) {
        // Stale-token events (slot recycled since the event was queued)
        // resolve to None and are ignored.
        if self.conns.get_mut(token).is_none() {
            return;
        }
        if ev.readable {
            self.read_ready(token);
        }
        if ev.writable {
            self.flush_conn(token);
        }
        if ev.hangup {
            // Drain any final inbound bytes were already attempted above if
            // readable; the peer is gone either way.
            if let Some(c) = self.conns.get_mut(token) {
                // One last flush attempt delivers what fits, then close.
                let _ = c.fsm.on_writable(&mut c.transport);
                self.teardown(token);
            }
        }
    }

    fn read_ready(&mut self, token: u64) {
        let Some(c) = self.conns.get_mut(token) else {
            return;
        };
        if c.fsm.read_paused || c.fsm.closing {
            return;
        }
        let outcome = c.fsm.on_readable(&mut c.transport);
        let queue = Arc::clone(&c.fsm.out);
        for TaggedRequest { id, req } in outcome.requests {
            // Duplicate live request ids cannot be answered unambiguously;
            // reject without executing.
            if queue.note_dispatch(id) {
                self.dispatch.dispatch(req, id, &queue);
            } else {
                let resp = Response::Error(ErrorBody {
                    code: codes::BAD_REQUEST.to_owned(),
                    message: format!("request id {id} is already in flight on this connection"),
                });
                push_response(&queue, id, &resp);
            }
        }
        if let Some(e) = outcome.error {
            // The requests decoded before the bad frame stand; nothing after
            // it was decoded, so nothing after it executes.
            self.poison(token, &queue, e.to_string());
        }
        if outcome.eof {
            // EOF covers both clean close and half-open peers (write side
            // shut): either way no more requests can arrive, so the
            // connection — and any streamed run feeding it — is torn down.
            self.teardown(token);
            return;
        }
        self.flush_conn(token);
    }

    /// Marks a connection poisoned after an unparseable frame (framing lost
    /// sync, a bare or malformed request, a mid-frame stall): one diagnostic
    /// tagged `u64::MAX` — the true id is unknowable — then close-on-drain.
    fn poison(&mut self, token: u64, queue: &Arc<ConnQueue>, message: String) {
        let Some(c) = self.conns.get_mut(token) else {
            return;
        };
        c.fsm.closing = true;
        let resp = Response::Error(ErrorBody {
            code: codes::BAD_REQUEST.to_owned(),
            message,
        });
        push_response(queue, u64::MAX, &resp);
    }

    /// Flushes a connection's write queue and re-evaluates its interest
    /// set and read-pause state.
    fn flush_conn(&mut self, token: u64) {
        let Some(c) = self.conns.get_mut(token) else {
            return;
        };
        match c.fsm.on_writable(&mut c.transport) {
            Ok(_drained) => {
                c.fsm.update_read_pause();
                if c.fsm.closing && !c.fsm.wants_write() {
                    self.teardown(token);
                    return;
                }
                self.update_interest(token);
            }
            Err(_) => self.teardown(token),
        }
    }

    fn update_interest(&mut self, token: u64) {
        let Some(c) = self.conns.get_mut(token) else {
            return;
        };
        let want = c.fsm.interest();
        if want != c.registered {
            let fd = c.transport.raw_fd();
            if self.poll.modify(fd, token, want).is_ok() {
                if let Some(c) = self.conns.get_mut(token) {
                    c.registered = want;
                }
            }
        }
    }

    /// Disconnects every peer that has left a frame half sent for longer
    /// than `frame_stall`: it would otherwise hold a slab slot and up to a
    /// frame's worth of decoder buffer forever. One best-effort diagnostic,
    /// then the connection goes regardless of whether it could be written.
    fn sweep_stalled(&mut self) {
        for token in self.conns.tokens() {
            let Some(c) = self.conns.get_mut(token) else {
                continue;
            };
            // While we are not reading, the missing bytes are not the
            // peer's fault.
            let stalled = !c.fsm.read_paused
                && c.fsm
                    .partial_since
                    .is_some_and(|t| t.elapsed() > self.frame_stall);
            if !stalled {
                continue;
            }
            let queue = Arc::clone(&c.fsm.out);
            self.poison(token, &queue, "peer stalled mid-frame".to_owned());
            if let Some(c) = self.conns.get_mut(token) {
                let _ = c.fsm.on_writable(&mut c.transport);
            }
            self.teardown(token);
        }
    }

    fn teardown(&mut self, token: u64) {
        let Some(c) = self.conns.remove(token) else {
            return;
        };
        // Closing the queue is what aborts any in-flight streamed run
        // feeding this connection: its next pick push fails.
        c.fsm.out.mark_closed();
        let _ = self.poll.deregister(c.transport.raw_fd());
        self.dispatch.conn_closed();
    }

    /// Number of live connections (test hook).
    pub fn connections(&self) -> usize {
        self.conns.len()
    }
}

/// Encodes `resp` as the wire frame of a `TaggedResponse` with id `tag`.
pub fn encode_response(tag: u64, resp: &Response) -> Result<Vec<u8>, crate::ServeError> {
    protocol::encode_frame(&Tagged::response(tag, resp))
}

/// Enqueues a response that answers no tracked request (duplicate-id
/// rejections, poison diagnostics) — the connection's in-flight set is left
/// untouched.
pub fn push_response(queue: &Arc<ConnQueue>, tag: u64, resp: &Response) {
    if let Ok(frame) = encode_response(tag, resp) {
        queue.push_notice(frame);
    }
}
