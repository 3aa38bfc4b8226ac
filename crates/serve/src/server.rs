//! The TCP server: the reactor thread that owns every connection, the
//! bounded worker pool with admission control, per-request deadlines, and
//! graceful shutdown.
//!
//! Threading model: one epoll [`reactor`] thread accepts connections, reads
//! and decodes frames, and writes responses; `close`/`stats`/`shutdown` are
//! answered on it directly (cheap, lock-only — so they work even when the
//! pool is saturated, which is exactly when `stats` matters). Query-bearing
//! requests (`open`/`run`/`run_stream`/`ping`/`insert`/`remove`) are handed
//! to a fixed pool of worker threads through a bounded queue. The pool size
//! caps in-flight query work; the queue caps waiting work — a request that
//! finds the queue full is rejected immediately with `overloaded` rather
//! than admitted into unbounded latency. Workers push response frames onto
//! the connection's write queue and wake the reactor to flush them.
//!
//! Deadlines are measured from *admission* (the moment the request enters
//! the queue): a request that waits out its budget in the queue aborts at
//! the first cancellation poll instead of burning a worker, and a running
//! query aborts between best-first-search heap pops via the core's
//! [`CancelToken`]. Either way the client gets `deadline_exceeded` and the
//! session remains fully usable.
//!
//! Graceful shutdown drains: the flag stops admission and accepting,
//! workers finish the queued backlog, the reactor delivers the final
//! responses and closes each connection once it has nothing in flight, and
//! every thread is joined before the handle returns.

use crate::metrics::{Endpoint, ServerMetrics};
use crate::protocol::{
    codes, AnswerBody, ErrorBody, InsertBody, MutatedBody, OpenBody, OpenedBody, PickBody,
    PingBody, RemoveBody, Request, Response, RunBody, ServeError, StatsBody,
};
use crate::reactor::conn::{ConnQueue, StreamSend};
use crate::reactor::{self, AsyncDispatch};
use crate::registry::{DatasetRegistry, MutationReceipt};
use crate::sessions::{LiveSession, SessionManager};
use crate::{protocol, registry};
use graphrep_core::{CancelToken, PickEvent};
use graphrep_lockaudit::{TrackedCondvar, TrackedMutex};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker-pool size — the bound on in-flight query work.
    pub workers: usize,
    /// Admission-control queue capacity: requests beyond the in-flight set
    /// wait here; when full, new requests are rejected as `overloaded`.
    pub max_queue: usize,
    /// Default per-request deadline applied when a `run` request carries
    /// none. `None` means unlimited.
    pub default_deadline_ms: Option<u64>,
    /// Idle TTL after which sessions expire.
    pub idle_session_ttl: Duration,
    /// How long a peer may stall mid-frame (no byte arriving while a frame
    /// is half received) before the connection is dropped.
    pub frame_stall: Duration,
    /// Per-connection outbound byte cap. A streamed run whose consumer lets
    /// the queue exceed this is cancelled as `slow_consumer`; reads from
    /// the peer pause until the queue drains below it.
    pub write_queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            max_queue: 64,
            default_deadline_ms: None,
            idle_session_ttl: Duration::from_secs(900),
            frame_stall: Duration::from_secs(10),
            write_queue_cap: 4 << 20,
        }
    }
}

enum Work {
    Open(OpenBody),
    Run(RunBody),
    RunStream(RunBody),
    Ping(PingBody),
    Insert(InsertBody),
    Remove(RemoveBody),
}

/// Where a worker delivers response frames: encoded under the request's id
/// onto the connection's write queue; the reactor is woken to flush them.
struct Reply {
    queue: Arc<ConnQueue>,
    tag: u64,
}

impl Reply {
    /// Sends a non-terminal streamed frame, reporting how it went so the
    /// producer can abort a stream nobody is consuming (or consuming too
    /// slowly).
    fn send_stream(&self, resp: Response) -> StreamSend {
        match reactor::encode_response(self.tag, &resp) {
            Ok(frame) => self.queue.push_stream(frame),
            Err(_) => StreamSend::Closed,
        }
    }

    /// Delivers the request's terminal frame (always enqueued while the
    /// connection lives; retires the request id).
    fn send_final(&self, resp: Response) {
        let frame = reactor::encode_response(self.tag, &resp).or_else(|_| {
            reactor::encode_response(self.tag, &err(codes::INTERNAL, "response failed to encode"))
        });
        if let Ok(frame) = frame {
            self.queue.push_final(self.tag, frame);
        }
    }
}

struct Job {
    work: Work,
    endpoint: Endpoint,
    /// Admission time: deadlines and latency are measured from here.
    arrived: Instant,
    reply: Reply,
}

struct Shared {
    cfg: ServeConfig,
    registry: DatasetRegistry,
    sessions: SessionManager,
    metrics: ServerMetrics,
    queue: TrackedMutex<VecDeque<Job>>,
    queue_cv: TrackedCondvar,
    shutdown: AtomicBool,
    started: Instant,
    /// Live connections (accepted and not yet torn down).
    connections_open: AtomicUsize,
}

fn err(code: &str, message: impl Into<String>) -> Response {
    Response::Error(ErrorBody {
        code: code.to_owned(),
        message: message.into(),
    })
}

impl Shared {
    fn shutting_down(&self) -> bool {
        // Relaxed: the flag is an advisory signal polled at loop boundaries;
        // no data is published through it.
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Admission control: queues the job for the pool, or — when draining
    /// or when the queue is full — answers it on the spot with the typed
    /// refusal.
    fn submit(&self, job: Job) {
        let refused = {
            let mut q = self.queue.lock();
            if self.shutting_down() {
                Some((job, err(codes::SHUTTING_DOWN, "server is draining")))
            } else if q.len() >= self.cfg.max_queue {
                let message = format!(
                    "queue full ({} waiting, {} in flight); retry later",
                    self.cfg.max_queue,
                    self.cfg.workers.max(1)
                );
                Some((job, err(codes::OVERLOADED, message)))
            } else {
                q.push_back(job);
                None
            }
        };
        match refused {
            None => self.queue_cv.notify_one(),
            Some((job, resp)) => self.finish(job.endpoint, job.arrived, &job.reply, resp),
        }
    }

    /// Ends a request: observes its endpoint metric and delivers the
    /// terminal frame. The reactor never sees response values, so whoever
    /// produced the response — worker or inline dispatch — calls this.
    fn finish(&self, endpoint: Endpoint, arrived: Instant, reply: &Reply, resp: Response) {
        self.metrics
            .endpoint(endpoint)
            .observe(resp.error_code(), arrived.elapsed());
        reply.send_final(resp);
    }

    fn begin_shutdown(&self) {
        // Relaxed: advisory signal polled at loop boundaries; the queue and
        // its condvar carry the actual work handoff.
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue_cv.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if shared.shutting_down() {
                    break None;
                }
                // Timed wait so a missed notification can never strand the
                // worker past one tick of the shutdown poll.
                let (guard, _) = shared.queue_cv.wait_timeout(q, Duration::from_millis(50));
                q = guard;
            }
        };
        // Drain semantics: jobs already admitted are executed even after the
        // shutdown flag rises; the worker exits only on an empty queue.
        let Some(job) = job else { return };
        let resp = execute(shared, job.work, job.arrived, &job.reply);
        shared.finish(job.endpoint, job.arrived, &job.reply, resp);
    }
}

/// Executes one job, streaming intermediate frames through `reply` for
/// [`Work::RunStream`], and returns the terminal response.
fn execute(shared: &Shared, work: Work, arrived: Instant, reply: &Reply) -> Response {
    match work {
        Work::Ping(p) => {
            if p.wait_ms > 0 {
                thread::sleep(Duration::from_millis(p.wait_ms));
            }
            Response::Pong
        }
        Work::Open(o) => open_session(shared, o),
        Work::Run(r) => run_query(shared, r, arrived, None),
        Work::RunStream(r) => run_query(shared, r, arrived, Some(reply)),
        Work::Insert(b) => insert_graph(shared, b),
        Work::Remove(b) => remove_graph(shared, b),
    }
}

/// Rebuilds the wire graph through the safe builder, so malformed input
/// (self loops, duplicate/parallel edges, out-of-range endpoints) surfaces
/// as `bad_request` instead of an invariant-violating graph in the database.
fn graph_from_wire(b: &InsertBody) -> Result<graphrep_graph::Graph, String> {
    let mut builder = graphrep_graph::GraphBuilder::new();
    for &label in &b.nodes {
        builder.add_node(label);
    }
    for e in &b.edges {
        if (e.u as usize) >= b.nodes.len() || (e.v as usize) >= b.nodes.len() {
            return Err(format!(
                "edge ({}, {}) references a node outside 0..{}",
                e.u,
                e.v,
                b.nodes.len()
            ));
        }
        builder
            .add_edge(e.u, e.v, e.label)
            .map_err(|err| format!("edge ({}, {}): {err}", e.u, e.v))?;
    }
    Ok(builder.build())
}

/// The wire receipt of an applied mutation, or `bad_request` with the
/// registry's reason.
fn mutated(t0: Instant, result: Result<MutationReceipt, ServeError>) -> Response {
    match result {
        Ok(r) => Response::Mutated(MutatedBody {
            id: r.id,
            epoch: r.epoch,
            live: r.live,
            tombstones: r.tombstones,
            rebuilt: r.rebuilt,
            wall_ms: protocol::duration_ms(t0.elapsed()),
            shard_epochs: r.shard_epochs,
        }),
        Err(e) => err(codes::BAD_REQUEST, e.message),
    }
}

fn insert_graph(shared: &Shared, b: InsertBody) -> Response {
    let Some(entry) = shared.registry.get(&b.dataset) else {
        return err(codes::NOT_FOUND, format!("unknown dataset `{}`", b.dataset));
    };
    if b.nodes.is_empty() {
        return err(codes::BAD_REQUEST, "graph must have at least one node");
    }
    let graph = match graph_from_wire(&b) {
        Ok(g) => g,
        Err(m) => return err(codes::BAD_REQUEST, m),
    };
    let t0 = Instant::now();
    mutated(t0, entry.insert_graph(graph, b.features))
}

fn remove_graph(shared: &Shared, b: RemoveBody) -> Response {
    let Some(entry) = shared.registry.get(&b.dataset) else {
        return err(codes::NOT_FOUND, format!("unknown dataset `{}`", b.dataset));
    };
    let t0 = Instant::now();
    mutated(t0, entry.remove_graph(b.id))
}

fn open_session(shared: &Shared, o: OpenBody) -> Response {
    let Some(entry) = shared.registry.get(&o.dataset) else {
        return err(codes::NOT_FOUND, format!("unknown dataset `{}`", o.dataset));
    };
    if !(0.0..=1.0).contains(&o.quantile) {
        return err(codes::BAD_REQUEST, "quantile must be in [0, 1]");
    }
    let t0 = Instant::now();
    let session = entry.open_session(o.quantile);
    let relevant = session.relevant().len();
    let id = shared.sessions.insert(session);
    Response::Opened(OpenedBody {
        session: id,
        relevant,
        init_ms: protocol::duration_ms(t0.elapsed()),
    })
}

/// What `run` and `run_stream` both need before they can execute: the live
/// session and the deadline token.
struct RunCtx {
    live: Arc<LiveSession>,
    cancel: CancelToken,
    deadline_ms: Option<u64>,
}

impl RunCtx {
    /// Validates θ, looks the session up, and arms the deadline — measured
    /// from admission, so queue wait spends the same budget.
    fn admit(shared: &Shared, r: &RunBody, arrived: Instant) -> Result<Self, Response> {
        if !r.theta.is_finite() || r.theta < 0.0 {
            return Err(err(
                codes::BAD_REQUEST,
                "theta must be finite and non-negative",
            ));
        }
        let Some(live) = shared.sessions.get(r.session) else {
            return Err(err(
                codes::NOT_FOUND,
                format!(
                    "no session {} (unknown, closed, or idle-expired)",
                    r.session
                ),
            ));
        };
        let deadline_ms = r.deadline_ms.or(shared.cfg.default_deadline_ms);
        let cancel = match deadline_ms {
            Some(ms) => CancelToken::with_deadline(arrived + Duration::from_millis(ms)),
            None => CancelToken::never(),
        };
        Ok(Self {
            live,
            cancel,
            deadline_ms,
        })
    }

    fn deadline_exceeded(&self) -> Response {
        err(
            codes::DEADLINE_EXCEEDED,
            format!(
                "deadline of {} ms exceeded; the session remains usable",
                self.deadline_ms.unwrap_or(0)
            ),
        )
    }
}

/// Executes one `(θ, k)` run on the session's engine — the session knows
/// which, and owns its caches ([`graphrep_core::Session`] states the
/// contract: token first, then the answer cache for a blocking run).
///
/// With `stream`, each accepted pick goes out as its own frame the moment
/// the search commits it and the terminal frame is `answer_end`, carrying
/// the full answer — byte-identical to what the blocking `run` of the same
/// request would produce. Streamed runs always execute: a cache hit has no
/// pick sequence to stream, and population stays the blocking path's job,
/// keeping cached/uncached accounting honest.
///
/// Abort cases, all terminal:
/// * deadline fired → `deadline_exceeded` (session stays usable);
/// * consumer over its write-queue cap → `slow_consumer` (connection stays
///   open — only the run is cancelled);
/// * consumer gone → an `internal` terminal frame that retires the request
///   id server-side; nobody is left to read it.
fn run_query(shared: &Shared, r: RunBody, arrived: Instant, stream: Option<&Reply>) -> Response {
    let ctx = match RunCtx::admit(shared, &r, arrived) {
        Ok(ctx) => ctx,
        Err(resp) => return resp,
    };
    let mut stream_fail: Option<StreamSend> = None;
    let mut send_pick;
    let on_pick: Option<&mut dyn FnMut(PickEvent) -> bool> = match stream {
        None => None,
        Some(reply) => {
            send_pick =
                |e: PickEvent| match reply.send_stream(Response::Pick(PickBody::from_event(&e))) {
                    StreamSend::Sent => true,
                    outcome => {
                        stream_fail = Some(outcome);
                        false
                    }
                };
            Some(&mut send_pick)
        }
    };
    let result = ctx
        .live
        .session()
        .run_with(r.theta, r.k, &ctx.cancel, on_pick)
        .map(|(answer, stats)| AnswerBody::from_run(&answer, &stats));
    match (result, stream_fail) {
        (Ok(body), _) if stream.is_some() => Response::AnswerEnd(body),
        (Ok(body), _) => Response::Answer(body),
        (Err(_), Some(StreamSend::OverCap)) => err(
            codes::SLOW_CONSUMER,
            format!(
                "write queue exceeded {} bytes; the run was cancelled and the session remains usable",
                shared.cfg.write_queue_cap
            ),
        ),
        (Err(_), Some(_)) => err(codes::INTERNAL, "client disconnected mid-stream"),
        (Err(_), None) => ctx.deadline_exceeded(),
    }
}

fn stats_body(shared: &Shared) -> StatsBody {
    // Snapshot the queue length in its own statement: all temporaries in a
    // struct literal overlap, and the admission path (which needs this lock)
    // must never wait behind the per-dataset stats walk below.
    let queue_len = shared.queue.lock().len();
    StatsBody {
        uptime_ms: protocol::duration_ms(shared.started.elapsed()),
        workers: shared.cfg.workers.max(1),
        queue_limit: shared.cfg.max_queue,
        queue_len,
        sessions_open: shared.sessions.len(),
        sessions_expired: shared.sessions.expired_total(),
        endpoints: shared.metrics.snapshot(),
        datasets: shared.registry.stats(),
        // Relaxed: monotone-ish gauge for observability only.
        connections_open: shared.connections_open.load(Ordering::Relaxed),
    }
}

fn endpoint_of(req: &Request) -> Endpoint {
    match req {
        Request::Open(_) => Endpoint::Open,
        Request::Run(_) => Endpoint::Run,
        Request::Close(_) => Endpoint::Close,
        Request::Stats => Endpoint::Stats,
        Request::Ping(_) => Endpoint::Ping,
        Request::Insert(_) => Endpoint::Insert,
        Request::Remove(_) => Endpoint::Remove,
        Request::Shutdown => Endpoint::Shutdown,
        Request::RunStream(_) => Endpoint::RunStream,
    }
}

/// The reactor-facing face of the server: `close`/`stats`/`shutdown` are
/// answered inline on the reactor thread, pooled endpoints go through
/// admission control, and either way the response is routed back through
/// the connection's write queue.
impl AsyncDispatch for Shared {
    fn dispatch(&self, req: Request, tag: u64, queue: &Arc<ConnQueue>) {
        let arrived = Instant::now();
        let endpoint = endpoint_of(&req);
        let reply = Reply {
            queue: Arc::clone(queue),
            tag,
        };
        let work = match req {
            Request::Open(b) => Work::Open(b),
            Request::Run(b) => Work::Run(b),
            Request::RunStream(b) => Work::RunStream(b),
            Request::Ping(b) => Work::Ping(b),
            Request::Insert(b) => Work::Insert(b),
            Request::Remove(b) => Work::Remove(b),
            inline => {
                let resp = match inline {
                    Request::Close(c) => {
                        if self.sessions.remove(c.session) {
                            Response::Closed
                        } else {
                            err(codes::NOT_FOUND, format!("no session {}", c.session))
                        }
                    }
                    Request::Stats => Response::Stats(stats_body(self)),
                    Request::Shutdown => {
                        self.begin_shutdown();
                        Response::ShutdownAck
                    }
                    // Pooled variants were peeled off above.
                    _ => err(codes::INTERNAL, "unroutable request"),
                };
                self.finish(endpoint, arrived, &reply, resp);
                return;
            }
        };
        self.submit(Job {
            work,
            endpoint,
            arrived,
            reply,
        });
    }

    fn shutting_down(&self) -> bool {
        Shared::shutting_down(self)
    }

    fn conn_opened(&self) {
        // Relaxed: observability gauge only.
        self.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    fn conn_closed(&self) {
        // Relaxed: observability gauge only.
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running server. Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`] (or send a wire `Shutdown`) and the handle's
/// join methods to end it cleanly.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    reactor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful shutdown and joins every server thread: queued
    /// work is drained, in-flight responses are delivered, then the pool
    /// and the reactor exit.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.join_all();
    }

    /// Blocks until the server shuts down (e.g. via a wire `Shutdown`
    /// request), then joins every thread.
    pub fn wait(self) {
        self.join_all();
    }

    fn join_all(self) {
        let _ = self.reactor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Starts a server over `registry` with `cfg`, returning once the listener
/// is bound, the worker pool is up, and the reactor is running.
pub fn start(cfg: ServeConfig, registry: DatasetRegistry) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| ServeError::new(format!("bind {}: {e}", cfg.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| ServeError::new(format!("local_addr: {e}")))?;
    let shared = Arc::new(Shared {
        sessions: SessionManager::new(cfg.idle_session_ttl),
        metrics: ServerMetrics::new(),
        registry,
        queue: TrackedMutex::new("serve.server.Shared.queue", VecDeque::new()),
        queue_cv: TrackedCondvar::new(),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        connections_open: AtomicUsize::new(0),
        cfg,
    });
    let mut workers = Vec::new();
    for i in 0..shared.cfg.workers.max(1) {
        let s = Arc::clone(&shared);
        let h = thread::Builder::new()
            .name(format!("graphrep-worker-{i}"))
            .spawn(move || worker_loop(&s))
            .map_err(|e| ServeError::new(format!("spawning worker {i}: {e}")))?;
        workers.push(h);
    }
    let reactor = spawn_reactor(Arc::clone(&shared), listener)?;
    Ok(ServerHandle {
        shared,
        addr,
        reactor,
        workers,
    })
}

/// Builds the epoll reactor and spawns its event-loop thread: the accept
/// path and every connection live on this one thread.
fn spawn_reactor(shared: Arc<Shared>, listener: TcpListener) -> Result<JoinHandle<()>, ServeError> {
    let (waker, wake_rx) =
        reactor::waker::Waker::new().map_err(|e| ServeError::new(format!("wake channel: {e}")))?;
    let acceptor = reactor::TcpAcceptor::new(listener)
        .map_err(|e| ServeError::new(format!("nonblocking listener: {e}")))?;
    let poll = reactor::sys::EpollPoll::new()
        .map_err(|e| ServeError::new(format!("epoll_create1: {e}")))?;
    let (write_cap, frame_stall) = (shared.cfg.write_queue_cap, shared.cfg.frame_stall);
    let dispatch: Arc<dyn AsyncDispatch> = shared;
    let reactor = reactor::Reactor::new(
        poll,
        Box::new(acceptor),
        Arc::new(waker),
        wake_rx,
        dispatch,
        write_cap,
        frame_stall,
    )
    .map_err(|e| ServeError::new(format!("reactor setup: {e}")))?;
    thread::Builder::new()
        .name("graphrep-reactor".to_owned())
        .spawn(move || reactor.run())
        .map_err(|e| ServeError::new(format!("spawning reactor: {e}")))
}

/// Convenience for tests and benchmarks: builds a registry holding the
/// single in-memory dataset `data` under `name` and starts a server on it.
pub fn start_in_memory(
    cfg: ServeConfig,
    name: &str,
    data: graphrep_datagen::Dataset,
) -> Result<ServerHandle, ServeError> {
    let mut reg = DatasetRegistry::new();
    reg.insert(registry::load_in_memory(name, data));
    start(cfg, reg)
}
